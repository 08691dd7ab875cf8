"""Tests for deterministic RNG streams."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.rng import RngStream, stream_seed


class TestStreamSeed:
    def test_deterministic(self):
        assert stream_seed(1, "a", 2) == stream_seed(1, "a", 2)

    def test_context_sensitivity(self):
        assert stream_seed(1, "a") != stream_seed(1, "b")
        assert stream_seed(1, "a") != stream_seed(2, "a")

    def test_context_order_matters(self):
        assert stream_seed(1, "a", "b") != stream_seed(1, "b", "a")

    @given(st.integers(min_value=0, max_value=2**62), st.text(max_size=20))
    def test_always_64_bit(self, seed, label):
        value = stream_seed(seed, label)
        assert 0 <= value < 2**64


class TestRngStream:
    def test_same_context_same_draws(self):
        a = RngStream(7, "x").uniform()
        b = RngStream(7, "x").uniform()
        assert a == b

    def test_different_context_different_draws(self):
        a = RngStream(7, "x").uniform()
        b = RngStream(7, "y").uniform()
        assert a != b

    def test_child_is_independent_of_parent_consumption(self):
        parent1 = RngStream(7, "p")
        parent2 = RngStream(7, "p")
        parent1.uniform()  # consume from one parent only
        assert parent1.child("c").uniform() == parent2.child("c").uniform()

    def test_lognormal_zero_sigma_is_identity(self):
        assert RngStream(1).lognormal_factor(0.0) == 1.0
        assert RngStream(1).lognormal_factor(-1.0) == 1.0

    def test_lognormal_unit_median(self):
        stream = RngStream(3, "median")
        draws = [stream.lognormal_factor(0.3) for _ in range(4001)]
        assert np.median(draws) == pytest.approx(1.0, rel=0.05)

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            RngStream(1).choice([])

    def test_choice_member(self):
        seq = ["a", "b", "c"]
        assert RngStream(1).choice(seq) in seq

    def test_shuffled_is_permutation_and_copy(self):
        seq = list(range(20))
        out = RngStream(5).shuffled(seq)
        assert sorted(out) == seq
        assert seq == list(range(20))  # input untouched

    def test_shuffled_deterministic(self):
        assert RngStream(5, "s").shuffled(range(10)) == RngStream(5, "s").shuffled(range(10))


class TestLazySeeding:
    def test_draws_match_a_generator_seeded_from_the_label(self):
        stream = RngStream(7, "lazy", 3)
        want = np.random.default_rng(stream_seed(7, "lazy", 3))
        got = [stream.uniform(), stream.lognormal_factor(0.4), stream.uniform(2.0, 5.0)]
        assert got == [
            float(want.uniform(0.0, 1.0)),
            float(np.exp(want.normal(0.0, 0.4))),
            float(want.uniform(2.0, 5.0)),
        ]

    def test_child_of_a_never_drawn_parent(self):
        parent = RngStream(7, "run")
        child = parent.child("io")
        want = np.random.default_rng(stream_seed(7, "run", "io"))
        assert child.lognormal_factor(0.3) == float(np.exp(want.normal(0.0, 0.3)))
        assert parent.uniform() == float(
            np.random.default_rng(stream_seed(7, "run")).uniform(0.0, 1.0)
        )

    def test_creating_streams_seeds_nothing(self, monkeypatch):
        seeded = []
        default_rng = np.random.default_rng

        def counting_default_rng(*args, **kwargs):
            seeded.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
        stream = RngStream(7, "run")
        children = [stream.child(label) for label in ("io", "compute", "fault")]
        assert seeded == []
        children[0].uniform()
        children[0].uniform()
        assert len(seeded) == 1

    def test_generator_is_always_the_same_object(self):
        stream = RngStream(3, "g")
        first = stream.generator
        assert stream.generator is first
        stream.uniform()
        assert stream.generator is first

    def test_racing_first_draws_lose_and_repeat_nothing(self):
        """8 threads make their first draws on fresh shared streams at
        once; together they draw the single-threaded sequence."""
        threads_n, draws_n, trials = 8, 25, 10
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(trials):
                shared = RngStream(11, "race", trial)
                barrier = threading.Barrier(threads_n)
                drawn = [[] for _ in range(threads_n)]

                def draw(out):
                    barrier.wait(timeout=10)
                    for _ in range(draws_n):
                        out.append(shared.uniform())

                threads = [
                    threading.Thread(target=draw, args=(out,)) for out in drawn
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                want = RngStream(11, "race", trial)
                expected = [want.uniform() for _ in range(threads_n * draws_n)]
                assert sorted(x for out in drawn for x in out) == sorted(expected)
        finally:
            sys.setswitchinterval(previous)
