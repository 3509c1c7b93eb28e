"""The perturbed signature-class run: golden values, linearity, obstructions."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from charclasses.counterexample import (
    report_document,
    run,
    succeeded,
)
from charclasses.genus import l_sequence
from charclasses.spaces import hp, product_space, sphere

GOLDEN = Path(__file__).parent / "golden" / "section5_R1.json"


def test_total_space_model():
    space = product_space(sphere(12, gen="x"), hp(2, gen="y"))
    assert space.dimension == 20
    assert space.ring.names == ("x", "y")
    assert space.total_p == space.ring.poly("1 + 2*y + 7*y^2")


def test_golden_run_at_unit_perturbation():
    report = run(1)
    ring = product_space(sphere(12, gen="x"), hp(2, gen="y")).ring
    assert report.p_low_unchanged == (True, True, True)
    assert report.p4 == ring.poly("4725/127*x*y")
    assert report.p5 == ring.poly("124065/9271*x*y^2")
    assert report.sign_fibre == 1
    assert report.casson == 0
    assert report.kappa_p5_integral == Fraction(124065, 9271)
    assert succeeded(report)


def test_unperturbed_run_solves_to_model_classes():
    report = run(0)
    assert report.p_low_unchanged == (True, True, True)
    assert report.p4.is_zero()
    assert report.p5.is_zero()
    assert report.kappa_p5_integral == 0
    assert report.casson == 0
    assert succeeded(report)


def test_perturbation_scales_linearly():
    base = run(1)
    for r in [Fraction(2), Fraction(5), Fraction(-3), Fraction(10), Fraction(3, 2)]:
        report = run(r)
        assert report.R == r
        assert report.p4 == base.p4 * r
        assert report.p5 == base.p5 * r
        assert report.kappa_p5_integral == base.kappa_p5_integral * r
        assert report.casson == 0
        assert report.p_low_unchanged == (True, True, True)
        assert succeeded(report)


def test_solved_classes_reproduce_the_target():
    # feeding the solved Pontryagin classes back through the sequence must
    # reproduce the perturbed signature class through weight 5
    seq = l_sequence()
    space = product_space(sphere(12, gen="x"), hp(2, gen="y"))
    ring = space.ring
    for r in (1, Fraction(-7, 3)):
        report = run(r)
        target = (
            seq.total_class(space.total_p, 5)
            + ring.gen("x") * ring.gen("y") * Fraction(r)
        )
        solved_total_p = (
            ring.one()
            + space.total_p.graded_component(4)
            + space.total_p.graded_component(8)
            + report.p4
            + report.p5
        )
        assert seq.total_class(solved_total_p, 5) == target


def test_succeeded_fails_on_nonzero_obstruction():
    report = run(1)
    broken = type(report)(
        R=report.R,
        p_low_unchanged=report.p_low_unchanged,
        p4=report.p4,
        p5=report.p5,
        sign_fibre=Fraction(9),
        casson=Fraction(1),
        kappa_p5_integral=report.kappa_p5_integral,
    )
    assert not succeeded(broken)
    silent = type(report)(
        R=Fraction(2),
        p_low_unchanged=report.p_low_unchanged,
        p4=report.p4,
        p5=report.p5,
        sign_fibre=report.sign_fibre,
        casson=Fraction(0),
        kappa_p5_integral=Fraction(0),
    )
    assert not succeeded(silent)


def test_report_document_shape_and_key_order():
    doc = report_document(run(Fraction(3, 2)))
    assert list(doc) == [
        "R",
        "p_low_unchanged",
        "p4",
        "p5",
        "sign_F",
        "casson",
        "p5_integral",
    ]
    assert doc["R"] == "3/2"
    assert doc["p_low_unchanged"] == [True, True, True]
    assert doc["sign_F"] == "1/1"
    assert doc["casson"] == "0/1"


def test_report_document_matches_golden_file():
    rendered = json.dumps(report_document(run(1)), indent=2) + "\n"
    assert rendered == GOLDEN.read_text(encoding="utf-8")
