"""`below` is ksim's one uniform draw: it must read a `random.Random`
stream exactly as `randrange(n)` and `choice(seq)` do, so that runs replay
the draws they made through those calls.  `skip_certain` must leave the
stream where that many draws of `below(getrandbits, 1)` would."""

import random

import pytest

from ksim.draws import below, skip_certain
from ksim.generators import GeneratorSpec, generate
from ksim.marking import Universe
from ksim.metric import build_hst, build_uniform

# every n from 1 to 130, and around each power of two up to 2^40, where the
# number of bits drawn steps and the rejection rate is highest
BOUNDS = sorted(set(range(1, 131)) | {2 ** j + e for j in range(1, 41) for e in (-1, 0, 1)})
SEEDS = range(12)


class TestBelow:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_randrange_draw_for_draw(self, seed):
        ours, ref = random.Random(seed), random.Random(seed)
        for n in BOUNDS:
            for _ in range(3):
                assert below(ours.getrandbits, n) == ref.randrange(n), n
                assert ours.getstate() == ref.getstate(), n

    @pytest.mark.parametrize("seed", SEEDS)
    def test_indexes_as_choice_draw_for_draw(self, seed):
        ours, ref = random.Random(seed), random.Random(seed)
        for n in BOUNDS:
            if n > 1000:
                continue  # a sequence of n items; the bounds above run past it
            seq = [f"item{i}" for i in range(n)]
            for _ in range(3):
                assert seq[below(ours.getrandbits, len(seq))] == ref.choice(seq), n
                assert ours.getstate() == ref.getstate(), n

    def test_stays_below_n_and_reaches_every_value(self):
        getrandbits = random.Random(5).getrandbits
        for n in (1, 2, 3, 5, 8, 9):
            assert {below(getrandbits, n) for _ in range(400)} == set(range(n))

    @pytest.mark.parametrize("n", [0, -1, -(2 ** 40)])
    def test_refuses_an_empty_range_without_drawing(self, n):
        # getrandbits(0) is 0, so a loop on it would never end
        def no_draws(k):
            raise AssertionError(f"drew {k} bits")
        with pytest.raises(ValueError, match="below needs n >= 1"):
            below(no_draws, n)

    def test_refuses_zero_on_a_live_stream(self):
        rng = random.Random(3)
        state = rng.getstate()
        drawn = []

        def bounded(k):
            # a loop on getrandbits(0) fails here instead of hanging
            drawn.append(k)
            if len(drawn) > 100:
                raise AssertionError("below(getrandbits, 0) did not stop")
            return rng.getrandbits(k)
        with pytest.raises(ValueError):
            below(bounded, 0)
        assert drawn == [] and rng.getstate() == state


class TestSkipCertain:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_leaves_the_stream_as_draws_of_one(self, seed):
        for m in [*range(65), 257, 1000]:
            ours, ref = random.Random(seed), random.Random(seed)
            for _ in range(m):
                assert below(ref.getrandbits, 1) == 0
            skip_certain(ours.getrandbits, m)
            assert ours.getstate() == ref.getstate(), m

    def test_skips_nothing_for_zero(self):
        def no_draws(k):
            raise AssertionError(f"drew {k} bits")
        skip_certain(no_draws, 0)

    @pytest.mark.parametrize("m", [-1, -1000])
    def test_refuses_a_negative_count_without_drawing(self, m):
        def no_draws(k):
            raise AssertionError(f"drew {k} bits")
        with pytest.raises(ValueError, match="skip_certain needs m >= 0"):
            skip_certain(no_draws, m)


class TestDrawSites:
    @pytest.mark.parametrize("branching", [[3, 3, 3], [8, 8], [2, 3]])
    @pytest.mark.parametrize("length", [0, 1, 17, 500])
    @pytest.mark.parametrize("seed", [0, 1, 9, 2 ** 40 + 3])
    def test_uniform_random_draws_as_randrange(self, branching, length, seed):
        space = build_hst(branching, 3)
        ref = random.Random(seed)
        expected = [ref.randrange(space.n_leaves) for _ in range(length)]
        assert generate(GeneratorSpec("uniform_random", length, seed=seed), space) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_marking_evicts_as_choice(self, seed):
        # a reference marking that evicts by `Random.choice` at every miss,
        # one candidate or more, and keeps its stream across resets
        n = 9
        for k in (1, 2, 4):
            events = random.Random(100 + 10 * k + seed)
            st = Universe(build_uniform(n, 1)).start(seed)
            st.reset(set(range(k)))
            rng, positions, marked = random.Random(seed), set(range(k)), set()
            for _ in range(300):
                if events.random() < 0.05:
                    cfg = set(events.sample(range(n), events.randint(1, n - 1)))
                    st.reset(cfg)
                    positions, marked = set(cfg), set()
                r = events.randrange(n)
                cost = st.serve(r)
                if r in positions:
                    marked.add(r)
                    assert cost == 0
                else:
                    if positions <= marked:
                        marked = set()
                    positions.remove(rng.choice(sorted(positions - marked)))
                    positions.add(r)
                    marked.add(r)
                    assert cost == 1
                assert st.config == frozenset(positions), (k, r)
                assert st.marked == marked, (k, r)
            assert st.rng.getstate() == rng.getstate(), k
            assert st.rng.getstate() == rng.getstate(), k  # a second read takes nothing

    def test_a_one_server_marking_never_seeds_or_draws(self, monkeypatch):
        calls = []

        def counted(name):
            method = getattr(random.Random, name)

            def wrapper(self, *args):
                calls.append(name)
                return method(self, *args)
            return wrapper
        for name in ("seed", "getrandbits"):
            monkeypatch.setattr(random.Random, name, counted(name))
        st = Universe(build_uniform(4, 1)).start(3)
        st.reset({0})
        assert st.serve_all([1, 0] * 500) == 1000
        assert calls == [] and st.config == {0}
        monkeypatch.undo()
        # the 1,000 certain draws are still taken, in one skip
        ref = random.Random(3)
        for _ in range(1000):
            below(ref.getrandbits, 1)
        assert st.rng.getstate() == ref.getstate()
