"""Tests for error-domain sample collection."""

import random


from repro.eco.samples import (
    collect_error_samples,
    sat_error_samples,
    simulation_error_samples,
    uniform_samples,
)
from repro.netlist.circuit import Circuit
from repro.netlist.simulate import evaluate_outputs


def buggy_pair():
    """impl: o = a | b ; spec: o = a & b — error domain is a != b."""
    impl = Circuit("impl")
    impl.add_inputs(["a", "b"])
    impl.set_output("o", impl.or_("a", "b"))
    spec = Circuit("spec")
    spec.add_inputs(["a", "b"])
    spec.set_output("o", spec.and_("a", "b"))
    return impl, spec


def rare_error_pair():
    """Error only on the single assignment a=b=c=d=1."""
    impl = Circuit("impl")
    impl.add_inputs(list("abcd"))
    impl.set_output("o", impl.const0())
    spec = Circuit("spec")
    spec.add_inputs(list("abcd"))
    spec.set_output("o", spec.and_("a", "b", "c", "d"))
    return impl, spec


def in_error_domain(impl, spec, sample, port="o") -> bool:
    iv = evaluate_outputs(impl, {n: sample[n] for n in impl.inputs})
    sv = evaluate_outputs(spec, {n: sample[n] for n in spec.inputs})
    return iv[port] != sv[port]


class TestSimulationSamples:
    def test_samples_are_errors(self):
        impl, spec = buggy_pair()
        rng = random.Random(0)
        samples = simulation_error_samples(impl, spec, "o", 4, rng)
        assert samples
        for s in samples:
            assert in_error_domain(impl, spec, s)

    def test_samples_distinct(self):
        impl, spec = buggy_pair()
        samples = simulation_error_samples(impl, spec, "o", 8,
                                           random.Random(1))
        keys = {tuple(sorted(s.items())) for s in samples}
        assert len(keys) == len(samples)
        assert len(samples) == 2  # the error domain has exactly 2 points


class TestSatSamples:
    def test_finds_rare_errors(self):
        impl, spec = rare_error_pair()
        samples = sat_error_samples(impl, spec, "o", 3)
        assert len(samples) == 1  # only one error assignment exists
        assert in_error_domain(impl, spec, samples[0])

    def test_respects_known_blocking(self):
        impl, spec = buggy_pair()
        first = sat_error_samples(impl, spec, "o", 1)
        second = sat_error_samples(impl, spec, "o", 1, known=first)
        assert second and second[0] != first[0]

    def test_exhausts_error_domain(self):
        impl, spec = buggy_pair()
        samples = sat_error_samples(impl, spec, "o", 10)
        assert len(samples) == 2


class TestCollect:
    def test_error_biased_collection(self):
        impl, spec = buggy_pair()
        samples = collect_error_samples(impl, spec, "o", 2,
                                        random.Random(3), error_bias=1.0)
        assert len(samples) == 2
        assert all(in_error_domain(impl, spec, s) for s in samples)

    def test_pads_with_uniform_when_errors_scarce(self):
        impl, spec = rare_error_pair()
        samples = collect_error_samples(impl, spec, "o", 6,
                                        random.Random(3), error_bias=1.0)
        assert len(samples) == 6
        assert sum(in_error_domain(impl, spec, s) for s in samples) == 1

    def test_mixed_bias(self):
        impl, spec = buggy_pair()
        samples = collect_error_samples(impl, spec, "o", 4,
                                        random.Random(3), error_bias=0.5)
        assert len(samples) == 4
        errors = sum(in_error_domain(impl, spec, s) for s in samples)
        assert errors >= 2

    def test_samples_cover_all_inputs(self):
        impl, spec = buggy_pair()
        for s in collect_error_samples(impl, spec, "o", 3,
                                       random.Random(0)):
            assert set(s) >= set(impl.inputs)


def test_uniform_samples_distinct():
    out = uniform_samples(["a", "b", "c"], 6, random.Random(0))
    keys = {tuple(sorted(s.items())) for s in out}
    assert len(keys) == len(out) == 6


class TestDiversify:
    def test_subset_size(self):
        from repro.eco.samples import diversify_samples
        inputs = ["a", "b", "c"]
        pool = [{"a": bool(k & 1), "b": bool(k & 2), "c": bool(k & 4)}
                for k in range(8)]
        subset = diversify_samples(pool, 3, inputs)
        assert len(subset) == 3
        assert all(s in pool for s in subset)

    def test_small_pool_passthrough(self):
        from repro.eco.samples import diversify_samples
        pool = [{"a": True}, {"a": False}]
        assert diversify_samples(pool, 5, ["a"]) == pool

    def test_spreads_hamming_distance(self):
        from repro.eco.samples import diversify_samples
        inputs = [f"x{i}" for i in range(6)]
        zero = {n: False for n in inputs}
        ones = {n: True for n in inputs}
        near_zero = dict(zero, x0=True)
        pool = [zero, near_zero, ones]
        subset = diversify_samples(pool, 2, inputs)
        # the farthest point from the anchor wins over the near one
        assert subset == [zero, ones]

    def test_engine_accepts_diversify_config(self):
        from repro.eco.config import EcoConfig
        from repro.eco.engine import rectify
        from repro.cec.equivalence import check_equivalence
        from repro.workloads.figures import example1_circuits
        impl, spec = example1_circuits(width=2)
        result = rectify(impl, spec,
                         EcoConfig(num_samples=8, sample_diversify=True))
        assert check_equivalence(result.patched, spec).equivalent is True
