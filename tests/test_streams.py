"""The per-evaluation rng streams are numpy's own SeedSequence children.

``streams.ChildStreams`` derives a batch of children in one array pass
instead of building a ``SeedSequence`` per child.  numpy itself is the
reference throughout: :class:`NumpyChildren` below is the construction the
driver and the baselines used before, one ``default_rng(child)`` per
child of ``parent.spawn(n)`` (kept in ``oracles``).  The thread-count tests elsewhere compare the
package with itself, so only these tests catch a change of stream.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import NumpyChildren
from scalebo import baselines, driver, problems, streams
from scalebo.driver import BoConfig
from scalebo.streams import ChildStreams


def assert_same_generators(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.bit_generator.state == b.bit_generator.state
        assert a.random(3).tobytes() == b.random(3).tobytes()
        assert a.integers(2**63, size=2).tobytes() == b.integers(2**63, size=2).tobytes()


def parent_pair(entropy, spawn_key, already, pool_size=4):
    """Two equal parents, one for each construction."""
    return [np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size,
                                   n_children_spawned=already) for _ in range(2)]


class TestIdentity:
    # Seed words come a block of indices at a time: ``already`` lands near
    # block edges as well as anywhere, and batches up to 300 span blocks.
    @settings(max_examples=150, deadline=None)
    @given(
        entropy=st.integers(0, 2**128),
        spawn_key=st.lists(st.integers(0, 2**40), max_size=2),
        already=st.integers(0, 2000) | st.builds(
            lambda block, offset: max(block * streams.BLOCK + offset, 0),
            st.integers(0, 6), st.integers(-3, 3)),
        pool_size=st.sampled_from([4, 8]),
        batches=st.lists(st.integers(1, 300), min_size=1, max_size=3),
    )
    def test_batches_equal_numpy_spawn_and_default_rng(
        self, entropy, spawn_key, already, pool_size, batches
    ):
        parent, reference = parent_pair(entropy, tuple(spawn_key), already, pool_size)
        new, old = ChildStreams(parent), NumpyChildren(reference)
        for n in batches:
            assert_same_generators(new.spawn(n), old.spawn(n))

    @pytest.mark.parametrize("already", [0, 1, 255, 256, 509])
    def test_batches_across_block_edges(self, already):
        parent, reference = parent_pair(41, (2,), already)
        new, old = ChildStreams(parent), NumpyChildren(reference)
        for n in (1, 254, 1, 0, 1, streams.BLOCK, 0, 2 * streams.BLOCK + 1, 3):
            assert_same_generators(new.spawn(n), old.spawn(n))

    def test_spawned_parents_at_depth_two(self):
        for seed in (0, 7, 2**64 + 3):
            parent = np.random.SeedSequence(seed).spawn(3)[1].spawn(5)[4]
            reference = np.random.SeedSequence(seed).spawn(3)[1].spawn(5)[4]
            new, old = ChildStreams(parent), NumpyChildren(reference)
            for n in (1, 10, 40):
                assert_same_generators(new.spawn(n), old.spawn(n))

    def test_sequence_entropy(self):
        entropy = [3, 2**33 + 1, 0, 5, 2**70, 1]      # more words than the pool
        parent, reference = parent_pair(entropy, (), 0)
        assert_same_generators(ChildStreams(parent).spawn(16), NumpyChildren(reference).spawn(16))

    @pytest.mark.skipif(not hasattr(np.random.Generator, "spawn"),
                        reason="Generator.spawn needs numpy >= 1.25")
    def test_generator_spawn_gives_numpys_grandchildren(self):
        parent, reference = parent_pair(11, (1,), 4)
        for new, old in zip(ChildStreams(parent).spawn(3), NumpyChildren(reference).spawn(3)):
            assert_same_generators(new.spawn(2), old.spawn(2))
            assert_same_generators(new.spawn(1), old.spawn(1))

    def test_other_state_requests_go_to_numpy(self):
        parent, reference = parent_pair(5, (2,), 0)
        # ``_seed_seq``: the public ``seed_seq`` needs numpy >= 1.25.
        child = ChildStreams(parent).spawn(1)[0].bit_generator._seed_seq
        expected = reference.spawn(1)[0]
        for n_words, dtype in ((4, np.uint64), (8, np.uint32), (3, np.uint64), (4, np.uint32)):
            assert np.array_equal(child.generate_state(n_words, dtype),
                                  expected.generate_state(n_words, dtype))

    def test_child_index_must_fit_one_word(self):
        # numpy's own spawn runs for minutes at this count; the last child is
        # built from its spawn key instead.
        new = ChildStreams(np.random.SeedSequence(9, n_children_spawned=2**32 - 1))
        last = np.random.SeedSequence(9, spawn_key=(2**32 - 1,))
        assert_same_generators(new.spawn(1), [np.random.default_rng(last)])
        with pytest.raises(OverflowError):
            new.spawn(1)

    def test_parent_is_left_untouched(self):
        parent = np.random.SeedSequence(3)
        ChildStreams(parent).spawn(5)
        assert parent.n_children_spawned == 0

    def test_negative_seed_raises_value_error(self):
        with pytest.raises(ValueError):
            ChildStreams(np.random.SeedSequence(-1))
        with pytest.raises(ValueError):
            baselines.McObjective(problem=calibrated_problem(), seed=-1)


# ---------------------------------------------------------------------------
# Whole runs against the reference construction


def calibrated_problem():
    s0 = problems.target_for_optimum(-0.58, 0.0, 0.25, 101.0)
    return problems.synthetic_powerlaw(-0.58, 0.0, 0.25, s0)


def gamma_noise_problem():
    return problems.gamma_noise(a=-0.5, ln_b=0.2, shape=4.0, s0=0.3)


@pytest.fixture(scope="module")
def srom_problem():
    return problems.srom_standin()


def trace_doc(trace):
    """Trace dict without its wall-clock fields."""
    doc = driver.trace_to_json_dict(trace)
    doc.pop("wall_clock_seconds")
    for item in doc["iterations"]:
        item.pop("wall_clock")
    return doc


def result_doc(result):
    """Everything a baseline result holds, draws as bytes."""
    return {
        "fields": (result.method, result.beta_hat, result.f_hat, result.evaluations_used,
                   result.stop_reason),
        "probes": [(p.beta, p.mean, p.se, p.count, p.order, p.s_draws.tobytes())
                   for p in result.probes],
    }


def assert_sized_search_matches_numpy(problem, monkeypatch):
    """A golden-section run of 1000-draw probes (chunks 256, 256, 256, 232)
    at 1 and 3 threads is the run on numpy's own child streams."""

    def search(threads):
        objective = baselines.McObjective(problem=problem, mc_samples=1000, seed=23,
                                          threads=threads)
        assert problem._takes_size
        return result_doc(baselines.golden_section(objective, (10.0, 1000.0), tol=0.04))

    new = [search(t) for t in (1, 3)]
    monkeypatch.setattr(streams, "ChildStreams", NumpyChildren)
    old = search(1)
    assert new[0] == old
    assert new[1] == old


class TestReferenceRuns:
    @pytest.mark.parametrize("name", ["calibrated", "gamma-noise", "srom"])
    def test_driver_run(self, name, srom_problem, monkeypatch):
        if name == "srom":
            problem, bounds = srom_problem, (3e7, 8e7)
        else:
            problem = calibrated_problem() if name == "calibrated" else gamma_noise_problem()
            bounds = (10.0, 1000.0)
        config = BoConfig(beta_min=bounds[0], beta_max=bounds[1], s0=problem.s0, seed=17,
                          n0=20, batch_size=10, max_iterations=6)
        new = [trace_doc(driver.run(config, problem, threads=t)) for t in (1, 3)]
        monkeypatch.setattr(streams, "ChildStreams", NumpyChildren)
        old = trace_doc(driver.run(config, problem))
        assert old["total_evaluations"] > config.n0
        assert new[0] == old
        assert new[1] == old

    def test_golden_section_sized_calibrated(self, monkeypatch):
        assert_sized_search_matches_numpy(calibrated_problem(), monkeypatch)

    def test_golden_section_sized_gamma_noise(self, monkeypatch):
        assert_sized_search_matches_numpy(gamma_noise_problem(), monkeypatch)

    def test_golden_section_scalar_srom(self, srom_problem, monkeypatch):
        def search():
            objective = baselines.McObjective(problem=srom_problem, mc_samples=100, seed=29)
            assert not srom_problem._takes_size
            return result_doc(baselines.golden_section(objective, (3e7, 8e7), tol=0.3))

        new = search()
        monkeypatch.setattr(streams, "ChildStreams", NumpyChildren)
        assert new == search()
