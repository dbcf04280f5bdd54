"""The frozen ``Record`` base of the package's records: fields, binding,
immutability, equality, hashing and ``repr``."""

import math

import numpy as np
import pytest

from stable_stein._record import Record
from stable_stein.bounds import Example2Report, SteinBoundReport, bound_main
from stable_stein.density import StableLaw
from stable_stein.kernels import (
    GeneralTail,
    HallTransform,
    LogPerturbedPareto,
    ModifiedPareto,
    Pareto,
    RateOrder,
)
from stable_stein.sampling import EmpiricalW1Result, SampleBatch


def general_tail():
    return GeneralTail(alpha=1.5, theta_scale=1.0, A_thresh=2.0,
                       m1_fn=lambda x: 0.5 * x ** -2.0, m2_fn=lambda x: 0.1 / x)


class TestFields:
    def test_order_and_defaults(self):
        assert RateOrder._fields == ("exponent", "has_log_factor", "in_log_n", "classified")
        assert RateOrder._defaults == {"in_log_n": False, "classified": True}
        r = RateOrder(-0.5, False)
        assert (r.in_log_n, r.classified) == (False, True)

    def test_base_fields_come_first(self):
        assert Pareto._fields == ("alpha",)
        assert ModifiedPareto._fields == ("alpha", "beta", "A", "B")
        # the derived two-term parameters keep their place before a, b, c
        assert HallTransform._fields == ("alpha", "beta", "A", "B", "a", "b", "c")
        assert Example2Report._fields[:len(SteinBoundReport._fields)] == SteinBoundReport._fields
        assert Example2Report._fields[len(SteinBoundReport._fields):] == (
            "case", "q_exponent", "leading_term", "remainder_term")

    def test_default_none_is_filled_by_post_init(self):
        law = LogPerturbedPareto(1.5, 1.0, x0=5.0)
        assert LogPerturbedPareto._defaults == {"K0": None, "x0": None}
        assert law.K0 == pytest.approx(5.0 ** 1.5 / math.log(5.0), rel=1e-15)
        assert LogPerturbedPareto(1.5, 1.0, K0=None, x0=5.0) == law

    def test_asdict(self):
        assert RateOrder(-0.5, True)._asdict() == {
            "exponent": -0.5, "has_log_factor": True, "in_log_n": False, "classified": True}


class TestBinding:
    def test_positional_and_keyword(self):
        assert ModifiedPareto(1.5, 4.0, 0.75, 2.0) == ModifiedPareto(1.5, 4.0, A=0.75, B=2.0)
        assert ModifiedPareto(B=2.0, A=0.75, beta=4.0, alpha=1.5) == \
            ModifiedPareto(1.5, 4.0, 0.75, 2.0)

    @pytest.mark.parametrize("args,kwargs,message", [
        ((), {}, "missing required argument 'exponent'"),
        ((-0.5,), {}, "missing required argument 'has_log_factor'"),
        ((-0.5, False), {"slope": 1.0}, "unexpected keyword argument 'slope'"),
        ((-0.5, False), {"exponent": -1.0}, "multiple values for argument 'exponent'"),
        ((-0.5, False, False, True, 1), {}, "takes 4 positional arguments but 5 were given"),
    ])
    def test_bad_arguments_raise(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            RateOrder(*args, **kwargs)


class TestFrozen:
    @pytest.mark.parametrize("record", [
        Pareto(1.5), RateOrder(-0.5, False), HallTransform(a=0.3, b=0.24, c=0.2, alpha=1.5),
        EmpiricalW1Result(0.1, 0.01, "one_sample_quantile", 100),
    ])
    def test_assignment_and_deletion_raise(self, record):
        name = record._fields[0]
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, 1.7)
        with pytest.raises(AttributeError):
            record.other = 1.0
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == before


class TestEquality:
    def test_by_type_and_fields(self):
        assert Pareto(1.5) == Pareto(1.5) and hash(Pareto(1.5)) == hash(Pareto(1.5))
        assert Pareto(1.5) != Pareto(1.6)
        assert Pareto(1.5) != StableLaw(1.5)
        assert len({Pareto(1.5), Pareto(1.5), StableLaw(1.5)}) == 2

    def test_subclass_is_another_type(self):
        base = bound_main(Pareto(1.5), 1.5, 1000, math.inf, 0.5)
        extended = Example2Report(**base._asdict())
        assert extended != base and base != extended

    def test_general_tail_compares_by_identity(self):
        gt = general_tail()
        assert gt == gt and hash(gt) == hash(gt)
        # the same parameters, but other function objects: another law
        assert gt != general_tail()
        assert len({gt, general_tail()}) == 2

    def test_sample_batch_compares_by_identity(self):
        # equal but distinct values arrays: a bool, not numpy's ValueError
        def batch():
            return SampleBatch(Pareto(1.5), 1, 3, 0, np.zeros(3))

        one = batch()
        assert one == one and hash(one) == hash(one)
        assert (one == batch()) is False and one != batch()
        assert len({one, batch()}) == 2


class TestRepr:
    def test_strings(self):
        assert repr(Pareto(1.5)) == "Pareto(alpha=1.5)"
        assert repr(RateOrder(-0.5, False)) == (
            "RateOrder(exponent=-0.5, has_log_factor=False, in_log_n=False, classified=True)")
        h = HallTransform(a=0.3, b=0.24, c=0.2, alpha=1.5)
        assert repr(h) == (f"HallTransform(alpha=1.5, beta={h.beta!r}, A={h.A!r}, B={h.B!r}, "
                           "a=0.3, b=0.24, c=0.2)")
        assert repr(EmpiricalW1Result(0.1, 0.01, "one_sample_quantile", 100)) == (
            "EmpiricalW1Result(estimate=0.1, std_error=0.01, estimator='one_sample_quantile', "
            "m=100, reference_m=None, bias_floor_estimate=0.0)")

    def test_nested_class_uses_its_qualified_name(self):
        class Outer:
            class Point(Record):
                x: float
                y: float = 0.0

        assert repr(Outer.Point(1.0)) == (
            "TestRepr.test_nested_class_uses_its_qualified_name.<locals>.Outer.Point(x=1.0, y=0.0)")


def test_example2_report_from_a_bound_report():
    base = bound_main(ModifiedPareto(1.5, 4.0, A=0.75, B=2.0), 1.5, 1000, math.inf, 0.5)
    assert isinstance(base, SteinBoundReport)
    report = Example2Report(**base._asdict(), case=1, leading_term=0.25)
    assert {name: getattr(report, name) for name in base._fields} == base._asdict()
    assert (report.case, report.q_exponent, report.leading_term, report.remainder_term) == (
        1, None, 0.25, 0.0)
    assert report.to_json_dict() == base.to_json_dict()
