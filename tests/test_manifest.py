"""Every artifact of the manifest's commands has the committed digest.

``manifest.json`` holds sha256 digests made under numpy's baseline CPU
dispatch and OpenBLAS's baseline kernels by ``manifest.py``, which says
what it runs.  Bytes are promised for one numpy build only, so the digests
are checked where numpy's version and the machine type are the ones that
made them; elsewhere the test says that it did not check.
"""

import json

import pytest

import manifest


def test_artifacts_have_the_committed_digests():
    committed = json.loads(manifest.MANIFEST.read_text(encoding="utf-8"))
    made_on = {key: committed[key] for key in manifest.scope()}
    if made_on != manifest.scope():
        pytest.skip(f"not checked: the manifest was made on {made_on}, this is {manifest.scope()}")
    made = manifest.baseline_dispatch_digests()
    assert sorted(made) == sorted(committed["digests"])
    changed = [name for name in made if made[name] != committed["digests"][name]]
    assert changed == [], f"artifacts whose bytes changed: {changed}"
