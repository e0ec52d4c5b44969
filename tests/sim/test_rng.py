"""Unit tests for the seeded RNG streams."""


import pytest

from repro.sim.rng import RngStream, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a") == derive_seed(42, "a")

    def test_scope_changes_seed(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_seed_changes_seed(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_nearby_seeds_uncorrelated(self):
        # Hash-based derivation: consecutive roots differ wildly.
        delta = abs(derive_seed(100, "x") - derive_seed(101, "x"))
        assert delta > 1_000_000

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(-1, "a")

    def test_non_negative_63_bit(self):
        for seed in (0, 1, 2**32, 2**60):
            value = derive_seed(seed, "scope")
            assert 0 <= value < 2**63


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(7, "s")
        b = RngStream(7, "s")
        assert [a.randint(0, 1000) for _ in range(20)] == \
               [b.randint(0, 1000) for _ in range(20)]

    def test_split_independent_of_parent_draws(self):
        a = RngStream(7, "s")
        child_before = a.split("c")
        seq_before = [child_before.randint(0, 10**9) for _ in range(5)]
        b = RngStream(7, "s")
        _ = [b.randint(0, 1000) for _ in range(50)]  # consume parent draws
        child_after = b.split("c")
        seq_after = [child_after.randint(0, 10**9) for _ in range(5)]
        assert seq_before == seq_after

    def test_siblings_differ(self):
        root = RngStream(7, "s")
        c1 = root.split("one")
        c2 = root.split("two")
        assert [c1.randint(0, 10**9) for _ in range(5)] != \
               [c2.randint(0, 10**9) for _ in range(5)]

    def test_bernoulli_extremes(self, rng):
        assert rng.bernoulli(0.0) is False
        assert rng.bernoulli(1.0) is True

    def test_bernoulli_rejects_bad_probability(self, rng):
        with pytest.raises(ValueError):
            rng.bernoulli(1.5)
        with pytest.raises(ValueError):
            rng.bernoulli(-0.1)

    def test_bernoulli_frequency(self):
        stream = RngStream(3, "freq")
        hits = sum(stream.bernoulli(0.3) for _ in range(20_000))
        assert 0.27 < hits / 20_000 < 0.33

    def test_uniform_bounds(self, rng):
        for _ in range(100):
            value = rng.uniform(2.0, 5.0)
            assert 2.0 <= value < 5.0

    def test_uniform_empty_interval_rejected(self, rng):
        with pytest.raises(ValueError):
            rng.uniform(5.0, 2.0)

    def test_randint_inclusive(self, rng):
        values = {rng.randint(1, 3) for _ in range(200)}
        assert values == {1, 2, 3}

    def test_randint_single_point(self, rng):
        assert rng.randint(4, 4) == 4

    def test_randint_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            rng.randint(5, 4)

    def test_choice(self, rng):
        options = ["a", "b", "c"]
        seen = {rng.choice(options) for _ in range(100)}
        assert seen == set(options)

    def test_choice_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            rng.choice([])

    def test_sample_distinct(self, rng):
        out = rng.sample(list(range(10)), 5)
        assert len(out) == 5
        assert len(set(out)) == 5

    def test_sample_too_many_rejected(self, rng):
        with pytest.raises(ValueError):
            rng.sample([1, 2], 3)

    def test_shuffle_is_permutation(self, rng):
        items = list(range(20))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_exponential_positive(self, rng):
        for _ in range(50):
            assert rng.exponential(10.0) >= 0.0

    def test_exponential_mean(self):
        stream = RngStream(9, "exp")
        mean = sum(stream.exponential(5.0) for _ in range(20_000)) / 20_000
        assert 4.6 < mean < 5.4

    def test_exponential_rejects_nonpositive(self, rng):
        with pytest.raises(ValueError):
            rng.exponential(0.0)

    def test_poisson_count_nonnegative(self, rng):
        assert rng.poisson_count(0.0) == 0
        for _ in range(50):
            assert rng.poisson_count(3.0) >= 0

    def test_geometric_failures_certain_success(self, rng):
        assert rng.geometric_failures(1.0) == 0

    def test_geometric_failures_cap(self, rng):
        for _ in range(100):
            assert rng.geometric_failures(0.01, cap=5) <= 5

    def test_geometric_failures_rejects_zero(self, rng):
        with pytest.raises(ValueError):
            rng.geometric_failures(0.0)

    def test_normal_zero_std(self, rng):
        assert rng.normal(3.0, 0.0) == 3.0

    def test_normal_rejects_negative_std(self, rng):
        with pytest.raises(ValueError):
            rng.normal(0.0, -1.0)

    def test_log_uniform_int_bounds(self, rng):
        for _ in range(200):
            value = rng.log_uniform_int(10, 1000)
            assert 10 <= value <= 1000

    def test_log_uniform_int_rejects_bad_range(self, rng):
        with pytest.raises(ValueError):
            rng.log_uniform_int(0, 10)
        with pytest.raises(ValueError):
            rng.log_uniform_int(10, 5)

    def test_log_uniform_spans_orders_of_magnitude(self):
        stream = RngStream(5, "log")
        values = [stream.log_uniform_int(10, 10_000) for _ in range(2000)]
        small = sum(1 for v in values if v < 100)
        large = sum(1 for v in values if v >= 1000)
        # Log-uniform: each decade gets a comparable share.
        assert small > 300
        assert large > 300


class TestBernoulliDrawOrder:
    """Pin the stream properties the injector's fault column depends on.

    The fault column (``repro.faults.injector``, whose own draw-order
    tests pin the verdicts) reproduces scalar ``bernoulli`` draws only
    because these hold bit for bit:

    1. degenerate probabilities (0.0 / 1.0) consume *no* underlying
       uniform draw;
    2. one ``Generator.random(k)`` call yields the same stream as ``k``
       scalar ``random()`` calls (chunking invariance);
    3. split streams never perturb each other.
    """

    def test_degenerate_probabilities_consume_no_draw(self):
        """0.0/1.0 draws must not advance the stream."""
        probabilities = (0.0, 0.5, 1.0, 0.5, 0.0, 0.5, 1.0, 0.5, 0.5, 0.5)
        plain = RngStream(7, "degenerate")
        with_degenerates = RngStream(7, "degenerate")
        a = [plain.bernoulli(0.5) for _ in range(6)]
        b = [with_degenerates.bernoulli(p) for p in probabilities]
        assert [v for p, v in zip(probabilities, b) if p == 0.5] == a
        assert with_degenerates.uniforms(3) == plain.uniforms(3)

    def test_chunking_invariance(self):
        """Uniforms of any split yield one identical combined sequence,
        and thresholding them reproduces scalar ``bernoulli`` draws."""
        whole = RngStream(3, "chunks").uniforms(40)
        stream = RngStream(3, "chunks")
        split = (stream.uniforms(20) + stream.uniforms(3)
                 + stream.uniforms(0) + stream.uniforms(17))
        assert whole == split
        scalar = RngStream(3, "chunks")
        assert [u < 0.5 for u in whole] == \
            [scalar.bernoulli(0.5) for _ in range(40)]
        with pytest.raises(ValueError):
            stream.uniforms(-1)

    def test_interleaved_channels_do_not_perturb_each_other(self):
        """Split streams are independent: draw order across them never
        changes either stream's own sequence."""
        root = RngStream(11, "inter")
        a, b = root.split("A"), root.split("B")
        interleaved_a, interleaved_b = [], []
        for i in range(20):
            interleaved_a.append(a.bernoulli(0.4))
            interleaved_b.append(b.bernoulli(0.6))
        root2 = RngStream(11, "inter")
        a2, b2 = root2.split("A"), root2.split("B")
        assert [u < 0.4 for u in a2.uniforms(20)] == interleaved_a
        assert [u < 0.6 for u in b2.uniforms(20)] == interleaved_b
