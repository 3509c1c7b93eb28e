"""Command-line surface: subcommands, formats, exit codes, determinism."""

import gc
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from charclasses import cli
from charclasses.cli import main
from charclasses.documents import space_from_document, space_to_document
from charclasses.rings import MAX_EXPONENT
from charclasses.scalars import MAX_MODULUS
from charclasses.spaces import cp, hp, product_space, sphere


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(out, err):
    """Exit 2 leaves stdout empty and writes one ``error: `` line to stderr."""
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------
# genus


def test_genus_text_table(capsys):
    code, out, _ = run_cli(capsys, "genus", "--series", "L", "--max-weight", "2")
    assert code == 0
    assert out == "K1 = 1/3*p1\nK2 = 7/45*p2 - 1/45*p1^2\n"


def test_genus_json_table(capsys):
    code, out, _ = run_cli(
        capsys, "genus", "--series", "Ahat", "--max-weight", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["series"] == "Ahat"
    assert payload["polynomials"][0] == {"weight": 1, "polynomial": "-1/24*p1"}
    assert payload["polynomials"][1]["polynomial"] == "-1/1440*p2 + 7/5760*p1^2"


def test_genus_weight_guardrail(capsys):
    for bad in ("0", "13", "-2"):
        code, out, err = run_cli(capsys, "genus", "--max-weight", bad)
        assert code == 2
        assert_one_error_line(out, err)
        assert "--max-weight" in err


def test_genus_weight_five_contains_published_leading_term(capsys):
    code, out, _ = run_cli(capsys, "genus", "--series", "L", "--max-weight", "5")
    assert code == 0
    assert "K5 = 146/13365*p5" in out


# ----------------------------------------------------------------------
# signature


def test_signature_from_file(capsys, tmp_path):
    path = write_json(tmp_path, "hp2.json", space_to_document(hp(2)))
    code, out, _ = run_cli(capsys, "signature", path)
    assert code == 0
    assert out == "signature = 1\n"


def test_signature_from_stdin(capsys, monkeypatch):
    payload = json.dumps(space_to_document(sphere(12)))
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = run_cli(capsys, "signature", "-", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"signature": "0/1"}


def test_signature_rejects_bad_document(capsys, tmp_path):
    doc = space_to_document(hp(2))
    doc["fundamental"] = "nope"
    path = write_json(tmp_path, "bad.json", doc)
    code, out, err = run_cli(capsys, "signature", path)
    assert code == 2
    assert_one_error_line(out, err)
    assert "/fundamental" in err


def test_a_fundamental_of_the_wrong_degree_is_reported_before_the_classes_parse(
    capsys, monkeypatch
):
    # RP^2 over F_2 with dimension 3, and a total_w that does not parse
    doc = {
        "characteristic": 2,
        "ring": {"generators": [{"name": "a", "degree": 1}],
                 "relations": [{"lhs": "a^3", "rhs": "0"}]},
        "dimension": 3, "fundamental": "a^2", "total_p": "1", "euler": "a^2",
        "total_w": "1 + a + nope",
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run_cli(capsys, "signature", "-")
    assert code == 2
    assert_one_error_line(out, err)
    assert err == "error: /fundamental: fundamental monomial has degree 2, expected 3\n"


def test_signature_reports_a_zero_denominator_in_the_fundamental_monomial(
    capsys, tmp_path
):
    doc = space_to_document(hp(2))
    doc["fundamental"] = "1/0"
    path = write_json(tmp_path, "bad.json", doc)
    code, out, err = run_cli(capsys, "signature", path)
    assert code == 2
    assert_one_error_line(out, err)
    assert err == "error: /fundamental: zero denominator in coefficient\n"


def test_signature_rejects_factors_side_by_side(capsys, tmp_path):
    # read as the sum 7*y + y, "7*y y" would give signature -20/9
    doc = space_to_document(hp(2))
    doc["total_p"] = "1 + 2*y + 7*y y"
    path = write_json(tmp_path, "bad.json", doc)
    code, out, err = run_cli(capsys, "signature", path)
    assert code == 2
    assert out == ""
    assert err == "error: /total_p: bad factor 'y y' in polynomial\n"


def test_signature_rejects_generator_names_the_parser_cannot_read(capsys, tmp_path):
    doc = space_to_document(hp(2))
    doc["ring"]["generators"][0]["name"] = "y y"
    path = write_json(tmp_path, "bad.json", doc)
    code, out, err = run_cli(capsys, "signature", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: /ring/generators/0/name: bad generator name 'y y'")


def test_signature_rejects_cycling_relations(capsys, tmp_path):
    # x^2*y -> x*y^2 -> x^2*y -> ... has no normal form
    doc = {
        "characteristic": 0,
        "ring": {
            "generators": [{"name": "x", "degree": 2}, {"name": "y", "degree": 2}],
            "relations": [{"lhs": "x^2", "rhs": "x*y"}, {"lhs": "y^2", "rhs": "x*y"}],
        },
        "dimension": 6,
        "fundamental": "x^2*y",
        "total_p": "1",
        "euler": "x^2*y",
    }
    path = write_json(tmp_path, "cycle.json", doc)
    code, out, err = run_cli(capsys, "signature", path)
    assert code == 2
    assert out == ""
    assert err == (
        "error: /ring: rules on 'y' and 'x' lie on a cycle of rewrites, "
        "so rewriting need not end\n"
    )


def test_signature_rejects_invalid_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = run_cli(capsys, "signature", str(path))
    assert code == 2
    assert_one_error_line(out, err)
    assert "invalid JSON" in err


def test_signature_missing_file(capsys):
    code, out, err = run_cli(capsys, "signature", "/no/such/file.json")
    assert code == 2
    assert_one_error_line(out, err)
    assert "cannot read" in err


def test_signature_rejects_integer_past_the_digit_limit(capsys, monkeypatch):
    # 5001 digits: json.loads raises a plain ValueError, not JSONDecodeError
    payload = '{"characteristic": 1' + "0" * 5000 + "}"
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, err = run_cli(capsys, "signature", "-")
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid JSON in '-': ")


def test_signature_rejects_nesting_past_the_recursion_limit(capsys, monkeypatch):
    # json.loads raises RecursionError, which is not a ValueError
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100000))
    code, out, err = run_cli(capsys, "signature", "-")
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid JSON in '-': ")


@pytest.mark.parametrize(
    "argv", [("signature",), ("kappa", "--class", "e", "--bundle")]
)
def test_document_file_that_is_not_utf8(capsys, tmp_path, argv):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"a": "\xff"}')
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {str(path)!r}: ")


def test_document_past_the_size_bound_on_stdin(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_DOCUMENT_CHARS", 16)
    monkeypatch.setattr("sys.stdin", io.StringIO(" " * 16 + "{}"))
    code, out, err = run_cli(capsys, "signature", "-")
    assert code == 2
    assert out == ""
    assert err == "error: cannot read '-': document exceeds 16 characters\n"


def test_document_past_the_size_bound_in_a_file(capsys, monkeypatch, tmp_path):
    path = write_json(tmp_path, "hp2.json", space_to_document(hp(2)))
    size = len(Path(path).read_text(encoding="utf-8"))
    monkeypatch.setattr(cli, "MAX_DOCUMENT_CHARS", size)
    assert run_cli(capsys, "signature", path) == (0, "signature = 1\n", "")
    monkeypatch.setattr(cli, "MAX_DOCUMENT_CHARS", size - 1)
    code, out, err = run_cli(capsys, "signature", path)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot read {path!r}: document exceeds {size - 1} characters\n"


def assert_too_large_to_print(out, err):
    assert_one_error_line(out, err)
    assert err == (
        "error: the result is too large to print: it has an integer of more than "
        f"{sys.get_int_max_str_digits()} digits\n"
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_signature_too_large_to_print_is_an_input_error(capsys, tmp_path, fmt):
    # a 3000-digit p1 squares into a signature of about 6000 digits, past
    # CPython's int-to-str limit, which the CLI keeps
    doc = space_to_document(hp(2))
    doc["total_p"] = "1 + " + "9" * 3000 + "*y + 7*y^2"
    path = write_json(tmp_path, "hp2.json", doc)
    code, out, err = run_cli(capsys, "signature", path, "--format", fmt)
    assert code == 2
    assert_too_large_to_print(out, err)


def char_p_document(characteristic):
    return {
        "characteristic": characteristic,
        "ring": {
            "generators": [{"name": "y", "degree": 4}],
            "relations": [{"lhs": "y^3", "rhs": "0"}],
        },
        "dimension": 8,
        "fundamental": "y^2",
        "total_p": "1",
        "euler": "3*y^2",
    }


@pytest.mark.parametrize(
    "characteristic", [6, 1000001, MAX_MODULUS], ids=["6", "1000001", "MAX_MODULUS"]
)
def test_signature_reports_bad_characteristic_at_its_pointer(
    capsys, tmp_path, characteristic
):
    path = write_json(tmp_path, "space.json", char_p_document(characteristic))
    code, out, err = run_cli(capsys, "signature", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: /characteristic: ")
    if characteristic == MAX_MODULUS:
        assert "MAX_MODULUS" in err


def test_large_prime_characteristic_decodes():
    space = space_from_document(char_p_document(2**61 - 1))
    assert space.ring.characteristic == 2**61 - 1


@pytest.mark.parametrize("characteristic", [2, 3])
def test_signature_in_characteristic_p_names_the_characteristic(
    capsys, tmp_path, characteristic
):
    path = write_json(tmp_path, "space.json", char_p_document(characteristic))
    code, out, err = run_cli(capsys, "signature", path)
    assert code == 2
    assert out == ""
    assert err == "error: /characteristic: genus evaluation needs characteristic 0\n"


@pytest.mark.parametrize(
    "make, expected",
    [
        (lambda: cp(40), "1"),
        (lambda: product_space(cp(20), cp(20, gen="g")), "1"),
        (lambda: product_space(sphere(72), hp(2)), "0"),
    ],
    ids=["CP40", "CP20xCP20", "S72xHP2"],
)
def test_signature_at_dimension_eighty(capsys, tmp_path, make, expected):
    # weight 20: far past the genus table guardrail, evaluated in the space
    path = write_json(tmp_path, "space.json", space_to_document(make()))
    code, out, _ = run_cli(capsys, "signature", path)
    assert code == 0
    assert out == f"signature = {expected}\n"


@pytest.mark.parametrize(
    "make",
    [lambda: product_space(sphere(40000), hp(2)), lambda: sphere(40000)],
    ids=["S40000xHP2", "S40000"],
)
def test_signature_cost_follows_the_nonzero_classes(capsys, tmp_path, make):
    # weight 10000 or more, but at most two nonzero power sums
    path = write_json(tmp_path, "space.json", space_to_document(make()))
    code, out, _ = run_cli(capsys, "signature", path)
    assert code == 0
    assert out == "signature = 0\n"


def free_space_doc(total_p):
    return {
        "characteristic": 0,
        "ring": {"generators": [{"name": "y", "degree": 4}], "relations": []},
        "dimension": 4, "fundamental": "y", "total_p": total_p, "euler": "0",
    }


def test_signature_reads_exponents_up_to_the_bound(capsys, tmp_path):
    path = write_json(tmp_path, "top.json", free_space_doc(f"1 + y + y^{MAX_EXPONENT}"))
    assert run_cli(capsys, "signature", path) == (0, "signature = 1/3\n", "")
    path = write_json(tmp_path, "past.json", free_space_doc(f"1 + y + y^{MAX_EXPONENT + 1}"))
    code, out, err = run_cli(capsys, "signature", path)
    assert code == 2
    assert_one_error_line(out, err)
    assert err == (f"error: /total_p: exponent {MAX_EXPONENT + 1} exceeds "
                   f"MAX_EXPONENT = {MAX_EXPONENT}\n")


def test_an_exponent_past_the_bound_exits_at_its_field_before_any_rewriting(
    capsys, monkeypatch
):
    # under y^3 -> z, y^3000001 took a million rewriting rounds
    doc = {
        "characteristic": 0,
        "ring": {"generators": [{"name": "y", "degree": 4}, {"name": "z", "degree": 12}],
                 "relations": [{"lhs": "y^3", "rhs": "z"}]},
        "dimension": 12, "fundamental": "z", "total_p": "1 + y^3000001", "euler": "z",
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run_cli(capsys, "signature", "-")
    assert code == 2
    assert_one_error_line(out, err)
    assert err == f"error: /total_p: exponent 3000001 exceeds MAX_EXPONENT = {MAX_EXPONENT}\n"


def test_signature_rejects_total_p_off_multiples_of_four(capsys, tmp_path):
    # p_i lives in degree 4i; the h term used to be ignored, giving 1
    doc = space_to_document(cp(2))
    doc["total_p"] = "1 + 5*h + 3*h^2"
    path = write_json(tmp_path, "bad.json", doc)
    code, out, err = run_cli(capsys, "signature", path)
    assert code == 2
    assert out == ""
    assert err == (
        "error: /total_p: total Pontryagin class has a term of degree 2, not a multiple of 4\n"
    )


def hp2_with(**fields):
    return dict(space_to_document(hp(2)), **fields)


def rp2_with(**fields):
    return dict(rp_product_doc((2,), ["a"]), **fields)


Y, X = {"name": "y", "degree": 4}, {"name": "x", "degree": 4}


def hp2_ring(generators=(Y,), relations=()):
    return hp2_with(ring={"generators": list(generators), "relations": list(relations)})


def rule(lhs, rhs="0"):
    return {"lhs": lhs, "rhs": rhs}


@pytest.mark.parametrize(
    "make, expected",
    [
        (lambda: hp2_with(total_p="2+2*y+7*y^2"),
         "/total_p: total Pontryagin class must have constant term 1"),
        (lambda: hp2_with(euler="3*y"),
         "/euler: Euler class must be homogeneous of degree 8"),
        (lambda: hp2_with(total_w="1"),
         "/total_w: total_w only makes sense in characteristic 2"),
        (lambda: rp2_with(total_w="a+a^2"),
         "/total_w: total Stiefel-Whitney class must start with 1"),
        (lambda: hp2_ring([Y, Y]), "/ring/generators/1/name: duplicate generator name 'y'"),
        (lambda: hp2_ring([{"name": "y", "degree": 3}]),
         "/ring/generators/0/degree: generator 'y' has odd degree 3; odd degrees "
         "require characteristic 2 under strict commutativity"),
        (lambda: hp2_ring(relations=[rule("y")]),
         "/ring/relations/0/lhs: rule left-hand side must look like 'g^k', got 'y'"),
        (lambda: hp2_ring(relations=[rule("z^3")]),
         "/ring/relations/0/lhs: rule on unknown generator 'z'"),
        (lambda: hp2_ring(relations=[rule("y^1")]),
         "/ring/relations/0/lhs: rule left-hand side must be g^k with an int k >= 2, got y^1"),
        (lambda: hp2_ring(relations=[rule(f"y^{MAX_EXPONENT + 1}")]),
         f"/ring/relations/0/lhs: rule exponent {MAX_EXPONENT + 1} exceeds "
         f"MAX_EXPONENT = {MAX_EXPONENT}"),
        (lambda: hp2_ring(relations=[rule("y^3"), rule("y^4")]),
         "/ring/relations/1/lhs: more than one rule for generator 'y'"),
        (lambda: hp2_ring(relations=[rule("y^3", "q")]),
         "/ring/relations/0/rhs: unknown generator 'q'"),
        (lambda: hp2_ring(relations=[rule("y^3", "y")]),
         "/ring/relations/0/rhs: rule y^3 has an inhomogeneous right-hand side "
         "(degree 4 term, expected 12)"),
        (lambda: hp2_ring([Y, X], [rule("x^2"), rule("y^3", "x^2*y")]),
         "/ring/relations/1/rhs: right-hand side of rule on 'y' contains a monomial "
         "divisible by x^2"),
    ],
    # a total_p term of degree 2: test_signature_rejects_total_p_off_multiples_of_four
    # a cycle names two rules and stays at /ring: test_signature_rejects_cycling_relations
    ids=["total_p-constant", "euler-degree", "total_w-characteristic", "total_w-constant",
         "ring-duplicate-name", "ring-odd-degree", "ring-lhs-syntax", "ring-lhs-unknown",
         "ring-lhs-power-1", "ring-lhs-past-max-exponent", "ring-second-rule",
         "ring-rhs-unknown", "ring-rhs-inhomogeneous", "ring-rhs-divisible"],
)
def test_signature_reports_a_bad_class_at_its_field(capsys, monkeypatch, make, expected):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(make())))
    code, out, err = run_cli(capsys, "signature", "-")
    assert code == 2
    assert_one_error_line(out, err)
    assert err == f"error: {expected}\n"


# ----------------------------------------------------------------------
# kappa


def projectivization_doc():
    return {
        "kind": "projectivization",
        "base": {
            "characteristic": 0,
            "ring": {
                "generators": [
                    {"name": "c1", "degree": 2},
                    {"name": "c2", "degree": 4},
                ],
                "relations": [],
            },
        },
        "chern": ["c1", "c2"],
    }


def test_kappa_euler_cubed(capsys, tmp_path):
    path = write_json(tmp_path, "proj.json", projectivization_doc())
    code, out, _ = run_cli(capsys, "kappa", "--bundle", path, "--class", "e^3")
    assert code == 0
    assert out == "kappa(e^3) = 2*c1^2 - 8*c2\n"


def test_kappa_json_format(capsys, tmp_path):
    path = write_json(tmp_path, "proj.json", projectivization_doc())
    code, out, _ = run_cli(
        capsys, "kappa", "--bundle", path, "--class", "e^2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"class": "e^2", "kappa": "0"}


def test_kappa_product_bundle_from_stdin(capsys, monkeypatch):
    doc = {
        "kind": "product",
        "base": space_to_document(sphere(12)),
        "fibre": space_to_document(hp(2)),
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, _ = run_cli(capsys, "kappa", "--bundle", "-", "--class", "p2")
    assert code == 0
    assert out == "kappa(p2) = 7\n"


def test_kappa_reports_a_zero_denominator_in_the_base_fundamental(capsys, tmp_path):
    base = space_to_document(sphere(12))
    base["fundamental"] = "1/0"
    doc = {"kind": "product", "base": base, "fibre": space_to_document(hp(2))}
    path = write_json(tmp_path, "bad.json", doc)
    code, out, err = run_cli(capsys, "kappa", "--bundle", path, "--class", "p2")
    assert code == 2
    assert_one_error_line(out, err)
    assert err == "error: /base/fundamental: zero denominator in coefficient\n"


def test_kappa_bad_class_monomial(capsys, tmp_path):
    path = write_json(tmp_path, "proj.json", projectivization_doc())
    code, out, err = run_cli(capsys, "kappa", "--bundle", path, "--class", "q7")
    assert code == 2
    assert_one_error_line(out, err)
    assert err.startswith("error: --class: unknown generator 'q7'")


def test_kappa_reads_class_exponents_up_to_the_bound(capsys, tmp_path):
    # e = 3*y^2 on the HP^2 fibre, so e^2 and every higher power vanish
    doc = {"kind": "product", "base": space_to_document(sphere(12)),
           "fibre": space_to_document(hp(2))}
    path = write_json(tmp_path, "product.json", doc)
    code, out, _ = run_cli(capsys, "kappa", "--bundle", path, "--class", f"e^{MAX_EXPONENT}")
    assert (code, out) == (0, f"kappa(e^{MAX_EXPONENT}) = 0\n")
    code, out, err = run_cli(
        capsys, "kappa", "--bundle", path, "--class", f"e^{MAX_EXPONENT + 1}")
    assert code == 2
    assert_one_error_line(out, err)
    assert err == (f"error: --class: exponent {MAX_EXPONENT + 1} exceeds "
                   f"MAX_EXPONENT = {MAX_EXPONENT}\n")


@pytest.mark.parametrize("cls", ["p2", "1/0", "e^", "e +", "2 e"])
def test_kappa_rejects_bad_class_text(capsys, tmp_path, cls):
    # p2 lies above d/2 = 1 on the rank-2 projectivization
    path = write_json(tmp_path, "proj.json", projectivization_doc())
    code, out, err = run_cli(capsys, "kappa", "--bundle", path, "--class", cls)
    assert (code, out) == (2, "")
    assert err.startswith("error: --class: ")


def test_kappa_of_a_class_polynomial(capsys, tmp_path):
    path = write_json(tmp_path, "proj.json", projectivization_doc())
    code, out, _ = run_cli(capsys, "kappa", "--bundle", path, "--class", "e^3 - 2*e^2")
    assert code == 0
    assert out == "kappa(e^3 - 2*e^2) = 2*c1^2 - 8*c2\n"


def test_kappa_rejects_twist_names_the_parser_cannot_read(capsys, tmp_path):
    doc = projectivization_doc()
    doc["twist"] = "t t"
    path = write_json(tmp_path, "proj.json", doc)
    code, out, err = run_cli(capsys, "kappa", "--bundle", path, "--class", "e")
    assert (code, out) == (2, "")
    assert err.startswith("error: /twist: bad generator name 't t'")


def test_kappa_too_large_to_print_is_an_input_error(capsys, tmp_path):
    # kappa(e^3) = 2*c1^2 - 8*c2 squares the 3000-digit coefficient of c1;
    # the class parsed, so the error does not name --class
    doc = projectivization_doc()
    doc["chern"] = ["9" * 3000 + "*c1", "c2"]
    path = write_json(tmp_path, "proj.json", doc)
    code, out, err = run_cli(capsys, "kappa", "--bundle", path, "--class", "e^3")
    assert code == 2
    assert_too_large_to_print(out, err)


def test_kappa_bad_document(capsys, tmp_path):
    path = write_json(tmp_path, "bad.json", {"kind": "mystery"})
    code, out, err = run_cli(capsys, "kappa", "--bundle", path, "--class", "e")
    assert code == 2
    assert_one_error_line(out, err)
    assert "/kind" in err


def test_kappa_reports_a_product_base_of_characteristic_3_at_the_base(capsys, tmp_path):
    fibre = char_p_document(3)
    fibre["ring"] = {"generators": [{"name": "z", "degree": 4}],
                     "relations": [{"lhs": "z^3", "rhs": "0"}]}
    fibre.update(fundamental="z^2", euler="3*z^2")
    doc = {"kind": "product", "base": char_p_document(3), "fibre": fibre}
    path = write_json(tmp_path, "bundle.json", doc)
    code, out, err = run_cli(capsys, "kappa", "--bundle", path, "--class", "e")
    assert code == 2
    assert out == ""
    assert err == ("error: /base/characteristic: no kappa classes in "
                   "characteristic 3; use 0 or 2\n")


def test_kappa_reports_a_mod_2_fibre_without_total_w_at_the_fibre(capsys, tmp_path):
    fibre = rp_product_doc((2,), ["a"])
    del fibre["total_w"]
    doc = {"kind": "product", "base": rp_product_doc((2,), ["b"]), "fibre": fibre}
    path = write_json(tmp_path, "bundle.json", doc)
    code, out, err = run_cli(capsys, "kappa", "--bundle", path, "--class", "w1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: /fibre/total_w: missing required field")
    assert_one_error_line(out, err)


def projectivization_with(**fields):
    return dict(projectivization_doc(), **fields)


def projectivization_over_characteristic(characteristic):
    doc = projectivization_doc()
    doc["base"]["characteristic"] = characteristic
    return doc


@pytest.mark.parametrize(
    "make, expected",
    [
        (lambda: projectivization_over_characteristic(2),
         "/base/characteristic: projectivization is implemented over characteristic 0"),
        (lambda: projectivization_over_characteristic(3),
         "/base/characteristic: projectivization is implemented over characteristic 0"),
        (lambda: projectivization_with(chern=["c1"]),
         "/chern: projectivization needs rank at least 2"),
        (lambda: projectivization_with(chern=["c1", "c1"]),
         "/chern/1: c_2 must be homogeneous of degree 4"),
        (lambda: projectivization_with(twist="c1"),
         "/twist: generator name 'c1' already taken in the base ring; "
         "pass a different twist name"),
        (lambda: {"kind": "product", "base": space_to_document(sphere(12)),
                  "fibre": rp_product_doc((2,), ["a"])},
         "/fibre/characteristic: tensor factors have different characteristics"),
        (lambda: {"kind": "product", "base": space_to_document(hp(2)),
                  "fibre": space_to_document(product_space(cp(2), hp(2)))},
         "/fibre/ring/generators/1/name: generator names collide in tensor product: "
         "['y']; rename before combining"),
        (lambda: {"kind": "product",
                  "base": space_to_document(product_space(cp(2), hp(2))),
                  "fibre": space_to_document(product_space(cp(2), hp(2)))},
         "/fibre/ring/generators/0/name: generator names collide in tensor product: "
         "['h', 'y']; rename before combining"),
        (lambda: {"kind": "product", "base": rp_product_doc((2,), ["b"]),
                  "fibre": rp2_with(total_w="a+a^2")},
         "/fibre/total_w: total Stiefel-Whitney class must start with 1"),
    ],
    ids=["base-characteristic-2", "base-characteristic-3", "rank-1", "c2-degree",
         "twist-taken", "fibre-characteristic", "fibre-generator-name",
         "fibre-generator-names", "fibre-total_w"],
)
def test_kappa_reports_a_bad_bundle_at_its_field(capsys, monkeypatch, make, expected):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(make())))
    code, out, err = run_cli(capsys, "kappa", "--bundle", "-", "--class", "e")
    assert code == 2
    assert_one_error_line(out, err)
    assert err == f"error: {expected}\n"


@pytest.mark.parametrize(
    "document, cls, expected",
    [
        ("kappa_rank6_free.json", "e^7", "kappa_rank6_free_e7.txt"),
        ("kappa_rank5_free.json", "e^6", "kappa_rank5_free_e6.txt"),
        ("kappa_rank6_free.json", "p1^3*p3", "kappa_rank6_free_p1_3_p3.txt"),
        # RP^2 x (RP^2 x RP^6 x RP^14) over F_2, a 315-term total_w
        ("kappa_mod2_rp2_rp6_rp14.json", "w1*w3*w7*w11",
         "kappa_mod2_rp2_rp6_rp14_w1_w3_w7_w11.txt"),
    ],
)
def test_kappa_of_euler_powers_is_byte_identical_to_golden(
    capsys, document, cls, expected
):
    # rank 6 over free Q[c1,c2,c3] (degrees 2, 4, 6) and rank 5 over
    # degrees 2..10: the heaviest kappa-rational benchmark ops; then one
    # Pontryagin and one Stiefel-Whitney monomial
    golden = Path(__file__).parent / "golden"
    code, out, err = run_cli(capsys, "kappa", "--bundle", str(golden / document),
                             "--class", cls)
    assert (code, err) == (0, "")
    assert out.encode() == (golden / expected).read_bytes()


# ----------------------------------------------------------------------
# bso


def test_bso_text(capsys):
    code, out, _ = run_cli(capsys, "bso", "--dimension", "4")
    assert code == 0
    assert out.splitlines() == [
        "characteristic 0",
        "generator e degree 4",
        "generator p1 degree 4",
        "generator p2 degree 8",
        "relation e^2 = p2",
    ]


def test_bso_without_euler_relation(capsys):
    code, out, _ = run_cli(
        capsys, "bso", "--dimension", "4", "--no-assume-euler-relation"
    )
    assert code == 0
    assert "relation" not in out


def test_bso_characteristic_two_json(capsys):
    code, out, _ = run_cli(
        capsys, "bso", "--dimension", "4", "--characteristic", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["characteristic"] == 2
    assert [g["name"] for g in payload["generators"]] == ["w2", "w3", "w4"]
    assert payload["relations"] == []


def test_bso_rejects_bad_dimension(capsys):
    for dimension in ("0", "-3"):
        code, out, err = run_cli(capsys, "bso", "--dimension", dimension)
        assert code == 2
        assert_one_error_line(out, err)
        assert "dimension" in err
        assert err == "error: --dimension: fibre dimension must be positive\n"


def test_bso_rejects_a_dimension_past_the_bound(capsys):
    limit = cli.MAX_BSO_DIMENSION
    code, out, err = run_cli(capsys, "bso", "--dimension", str(limit + 1))
    assert code == 2
    assert_one_error_line(out, err)
    assert err == f"error: --dimension must be at most {limit}, got {limit + 1}\n"


# ----------------------------------------------------------------------
# section5


def test_section5_text_golden(capsys):
    code, out, _ = run_cli(capsys, "section5")
    assert code == 0
    assert out.splitlines() == [
        "R = 1",
        "p1 p2 p3 unchanged: yes yes yes",
        "p4 = 4725/127*x*y",
        "p5 = 124065/9271*x*y^2",
        "sign(F) = 1",
        "casson obstruction = 0",
        "p5 integral = 124065/9271",
    ]


def test_section5_json_contains_integral(capsys):
    code, out, _ = run_cli(capsys, "section5", "--R", "1", "--format", "json")
    assert code == 0
    assert '"p5_integral": "124065/9271"' in out
    payload = json.loads(out)
    assert payload["p_low_unchanged"] == [True, True, True]
    assert payload["casson"] == "0/1"


def test_section5_rational_perturbation(capsys):
    code, out, _ = run_cli(capsys, "section5", "--R", "5/2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["R"] == "5/2"
    assert payload["p5_integral"] == "620325/18542"


def test_section5_rejects_decimal_perturbation(capsys):
    code, out, err = run_cli(capsys, "section5", "--R", "0.5")
    assert code == 2
    assert_one_error_line(out, err)
    assert "--R" in err


def test_section5_bounds_the_digits_of_the_perturbation(capsys):
    # the report prints R times constants of up to six digits, so R of
    # 4295 to 4300 digits would parse and then fail to print
    limit = cli.MAX_R_DIGITS
    assert 1000 <= limit <= 4300 - 6  # benchmark R values; CPython's default
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "section5", f"--R={'9' * limit}",
                                 "--format", fmt)
        assert (code, err) == (0, "")
    assert json.loads(out)["R"] == "9" * limit + "/1"
    for r_text in ("9" * (limit + 1), "9" * 4295, "9" * 4300,
                   f"1/{'9' * (limit + 1)}", f"-{'9' * 4300}/7"):
        code, out, err = run_cli(capsys, "section5", f"--R={r_text}")
        assert code == 2
        assert_one_error_line(out, err)
        assert err == (
            f"error: --R: numerator and denominator must have at most {limit} "
            "digits each\n"
        )


# ----------------------------------------------------------------------
# verify


def test_verify_passes_and_is_sorted(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    lines = out.splitlines()
    assert lines
    assert all(line.startswith("PASS ") for line in lines)
    ids = [line.split()[1].rstrip(":") for line in lines]
    assert ids == sorted(ids)


def test_verify_json_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(check["passed"] for check in payload["checks"])


def test_verify_reports_a_failing_check_and_exits_1(capsys, monkeypatch):
    from charclasses import checks

    def failing():
        checks._ensure(1 + 1 == 3, "arithmetic is off")
        return "unreachable"

    monkeypatch.setattr(checks, "_CHECKS", [
        (check_id, failing if check_id == "sign-HP2-equals-1" else func)
        for check_id, func in checks._CHECKS
    ])
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "FAIL sign-HP2-equals-1: CheckFailure: arithmetic is off\n" in out
    assert sum(line.startswith("FAIL ") for line in out.splitlines()) == 1
    code, out, _ = run_cli(capsys, "verify", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert {"id": "sign-HP2-equals-1", "passed": False,
            "detail": "CheckFailure: arithmetic is off"} in payload["checks"]


def test_repeated_runs_are_byte_identical(capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "verify", "--format", "json")
        outputs.add(out)
    for _ in range(2):
        _, out, _ = run_cli(capsys, "section5", "--R", "3", "--format", "json")
        outputs.add(out)
    for _ in range(2):
        _, out, _ = run_cli(capsys, "genus", "--max-weight", "5")
        outputs.add(out)
    assert len(outputs) == 3


# ----------------------------------------------------------------------
# top-level behavior


def test_unknown_subcommand_exits_with_usage_error(capsys):
    code, _, err = run_cli(capsys, "nonsense")
    assert code == 2
    assert "invalid choice" in err


def test_missing_subcommand_exits_with_usage_error(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "genus" in out and "verify" in out


K2_TABLE = "K1 = 1/3*p1\nK2 = 7/45*p2 - 1/45*p1^2\n"


@pytest.mark.parametrize("argv, code, output", [
    (["genus", "--max-weight", "2"], 0, K2_TABLE),
    (["genus", "--max-weight=2"], 0, K2_TABLE),
    (["genus", "--max", "2"], 0, K2_TABLE),
    (["genus", "--max=2", "--form", "text"], 0, K2_TABLE),
    (["genus", "--max-weight", "5", "--max-weight", "2"], 0, K2_TABLE),  # the last one wins
    (["genus", "--series=Ahat", "--max-weight", "1"], 0, "K1 = -1/24*p1\n"),
    # a negative number is a value, and the handler rejects it
    (["genus", "--max-weight", "-2"], 2, "error: --max-weight must lie in 1..12, got -2\n"),
    (["section5", "--R", "-5"], 0,
     "R = -5\np1 p2 p3 unchanged: yes yes yes\np4 = -23625/127*x*y\np5 = -620325/9271*x*y^2\n"
     "sign(F) = 1\ncasson obstruction = 0\np5 integral = -620325/9271\n"),
    (["section5", "--R=-3/2"], 0,
     "R = -3/2\np1 p2 p3 unchanged: yes yes yes\np4 = -14175/254*x*y\np5 = -372195/18542*x*y^2\n"
     "sign(F) = 1\ncasson obstruction = 0\np5 integral = -372195/18542\n"),
    (["signature", "-"], 0, "signature = 1\n"),
    (["signature", "{hp2}", "--format", "json"], 0, '{\n  "signature": "1/1"\n}\n'),
    (["signature", "--format", "json", "{hp2}"], 0, '{\n  "signature": "1/1"\n}\n'),
    # a token with a space is a value even where it starts with "-"
    (["kappa", "--class", "-e^3 + 3*e^3", "--bundle", "{proj}"], 0,
     "kappa(-e^3 + 3*e^3) = 4*c1^2 - 16*c2\n"),
    (["bso", "--dimension", "4", "--no-assume-euler-relation"], 0,
     "characteristic 0\ngenerator e degree 4\ngenerator p1 degree 4\ngenerator p2 degree 8\n"),
    (["bso", "--no-assume-euler-relation", "--dim=4", "--assume"], 0,
     "characteristic 0\ngenerator e degree 4\ngenerator p1 degree 4\ngenerator p2 degree 8\n"
     "relation e^2 = p2\n"),
])
def test_the_command_line_grammar_accepts(capsys, monkeypatch, tmp_path, argv, code, output):
    paths = {"hp2": write_json(tmp_path, "hp2.json", space_to_document(hp(2))),
             "proj": write_json(tmp_path, "proj.json", projectivization_doc())}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(space_to_document(hp(2)))))
    got, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert (got, out if code == 0 else err) == (code, output)


TOP_USAGE = "usage: charclasses [-h] {genus,signature,kappa,bso,section5,verify} ..."
CHOICES = "'genus', 'signature', 'kappa', 'bso', 'section5', 'verify'"


@pytest.mark.parametrize("argv, error", [
    ([], "charclasses: error: the following arguments are required: subcommand"),
    (["-x"], "charclasses: error: the following arguments are required: subcommand"),
    (["nonsense"], f"charclasses: error: argument subcommand: invalid choice: 'nonsense' "
                   f"(choose from {CHOICES})"),
    (["--max-weight", "2", "genus"], "charclasses: error: argument subcommand: invalid "
                                     f"choice: '2' (choose from {CHOICES})"),
    (["genus"], "charclasses genus: error: the following arguments are required: --max-weight"),
    (["kappa"], "charclasses kappa: error: the following arguments are required: "
                "--bundle, --class"),
    (["genus", "--max-weight", "x"],
     "charclasses genus: error: argument --max-weight: invalid int value: 'x'"),
    (["genus", "--max-weight"], "charclasses genus: error: argument --max-weight: expected one "
                                "argument"),
    (["genus", "--max-weight", "2", "--format", "xml"],
     "charclasses genus: error: argument --format: invalid choice: 'xml' "
     "(choose from 'text', 'json')"),
    (["bso", "--characteristic", "3"], "charclasses bso: error: argument --characteristic: "
                                       "invalid choice: 3 (choose from 0, 2)"),
    (["bso", "--dimension", "4", "--assume-euler-relation=no"],
     "charclasses bso: error: argument --assume-euler-relation/--no-assume-euler-relation: "
     "ignored explicit argument 'no'"),
    (["section5", "--R", "-3/2"], "charclasses section5: error: argument --R: expected one "
                                  "argument"),
    (["genus", "--max-weight", "3", "extra"], "charclasses: error: unrecognized arguments: extra"),
    (["signature", "-", "-x"], "charclasses: error: unrecognized arguments: -x"),
    (["signature", "-x"], "charclasses signature: error: the following arguments are required: "
                          "document"),
])
def test_the_command_line_grammar_rejects(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    usage, *_, last = err.splitlines()
    assert last == error
    prog = error.split(": error: ")[0]
    assert usage.startswith(f"usage: {prog} [-h]")
    assert prog != "charclasses" or usage == TOP_USAGE


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect(tmp_path):
    # each subcommand runs in a fresh process, and these two (with ast, dis
    # and tokenize behind them) cost ~15 ms of its start-up; only modules
    # the import adds count, since site may load either one first.  Each
    # process also compiles the package from source when no bytecode is
    # written, so the CLI loads a submodule only for the subcommands that use
    # it, and the package itself loads none until a name is asked for
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import charclasses\n"
        "print(sorted(set(sys.modules) - before - {'charclasses'}))\n"
        "import charclasses.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'charclasses.checks',\n"
        "              'charclasses.symfun', 'charclasses.counterexample',\n"
        "              'charclasses.genus'} & (set(sys.modules) - before)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=package_env(),
    )
    assert done.stdout == "[]\n[]\n"
    # a kappa process, run as the benchmark runs it, never imports genus
    path = write_json(tmp_path, "proj.json", projectivization_doc())
    out, imported = run_importtime("kappa", "--bundle", path, "--class", "e^3")
    assert out == "kappa(e^3) = 2*c1^2 - 8*c2\n"
    assert "charclasses.bundles" in imported
    assert "charclasses.genus" not in imported


def launch(module, *argv):
    """``python -m <module> *argv`` as a process, with its bytes captured.

    Its stdout is a pipe and, with ``PYTHONUNBUFFERED`` unset, block
    buffered: ``os._exit`` skips the interpreter's own flush, so output
    that ``run()`` failed to flush would be lost.
    """
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, env=env)


@pytest.mark.parametrize("module", ["charclasses", "charclasses.cli"])
def test_each_launcher_exits_with_the_code_main_returns(module):
    done = launch(module, "genus", "--max-weight", "2")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == b"K1 = 1/3*p1\nK2 = 7/45*p2 - 1/45*p1^2\n"
    done = launch(module, "genus", "--max-weight", "13")
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == b"error: --max-weight must lie in 1..12, got 13\n"
    done = launch(module)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.endswith(
        b"error: the following arguments are required: subcommand\n")


def test_importing_the_main_module_runs_nothing():
    # run() ends the process it runs in, so only ``-m`` may call it
    done = subprocess.run(
        [sys.executable, "-c", "import charclasses.__main__; print('alive')"],
        capture_output=True, env=package_env(),
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, b"alive\n", b"")


def test_the_launcher_delivers_the_largest_output_whole(capsys):
    done = launch("charclasses", "bso", "--dimension", "100000")
    assert (done.returncode, done.stderr) == (0, b"")
    code, out, _ = run_cli(capsys, "bso", "--dimension", "100000")
    assert code == 0
    assert len(done.stdout) == 1_511_186
    assert done.stdout == out.encode()


def test_a_launcher_whose_reader_closes_early_exits_141_quietly():
    # 128 + SIGPIPE, as a shell reports for a tool that SIGPIPE stopped; the
    # output is 1.5 MB, far past a pipe's buffer, so the write meets the
    # closed pipe
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)  # unbuffered, a short write goes unnoticed
    proc = subprocess.Popen(
        [sys.executable, "-m", "charclasses", "bso", "--dimension", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), head, err) == (141, b"characteri", b"")


def test_an_unbuffered_launcher_whose_reader_closes_early_exits_141_quietly():
    # unbuffered, stdout writes straight to the pipe, and a write that the
    # closed pipe cuts short returns without error; the launcher buffers
    # stdout again, so the short write is retried and the pipe error shows
    env = dict(package_env(), PYTHONUNBUFFERED="1")
    argv = [sys.executable, "-m", "charclasses", "bso", "--dimension", "100000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), head, err) == (141, b"characteri", b"")
    # and a reader that stays gets the whole output
    done = subprocess.run(argv, capture_output=True, env=env)
    assert (done.returncode, len(done.stdout), done.stderr) == (0, 1_511_186, b"")


def garbage_left_by(capsys, *argv):
    """What ``gc.collect()`` finds after an in-process run with gc off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        code = main(list(argv))
        found = gc.collect()
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()
    assert code == 0
    return found


def free_abc_doc(dimension):
    """Free Q[a,b,c] in degrees 4, 8, 12 with total_p 1 + a + b + c."""
    return {
        "characteristic": 0,
        "ring": {"generators": [{"name": "a", "degree": 4},
                                {"name": "b", "degree": 8},
                                {"name": "c", "degree": 12}], "relations": []},
        "dimension": dimension, "fundamental": f"a^{dimension // 4}",
        "total_p": "1 + a + b + c", "euler": "0",
    }


def rp_product_doc(ns, names):
    """The product of RP^n over F_2, n = 2^j - 2, so w is every monomial."""
    top = "*".join(f"{name}^{n}" for name, n in zip(names, ns))
    return {
        "characteristic": 2,
        "ring": {"generators": [{"name": name, "degree": 1} for name in names],
                 "relations": [{"lhs": f"{name}^{n + 1}", "rhs": "0"}
                               for name, n in zip(names, ns)]},
        "dimension": sum(ns), "fundamental": top, "total_p": "1", "euler": top,
        "total_w": " + ".join(
            "*".join(f"{name}^{k}" for name, k in zip(names, exps) if k) or "1"
            for exps in itertools.product(*(range(n + 1) for n in ns))),
    }


def test_the_garbage_a_run_leaves_does_not_grow_with_its_work(capsys, tmp_path):
    # run() keeps the collector off for the whole process, which is safe
    # only while the cyclic garbage is bounded by the input, not the work:
    # no ring holds a cycle (a rule keeps packed terms, not a polynomial
    # that refers back to its ring); the kappa fibres compared have the
    # same generators and rules, so only the work differs
    small = write_json(tmp_path, "small.json", free_abc_doc(40))
    large = write_json(tmp_path, "large.json", free_abc_doc(160))
    garbage_left_by(capsys, "signature", small)  # imports what it runs
    assert (garbage_left_by(capsys, "signature", large)
            <= garbage_left_by(capsys, "signature", small))
    names = ["a0", "a1", "a2", "a3"]
    small = write_json(tmp_path, "small.json", {
        "kind": "product", "base": rp_product_doc((2,), ["b"]),
        "fibre": rp_product_doc((2,) * 4, names)})
    large = write_json(tmp_path, "large.json", {
        "kind": "product", "base": rp_product_doc((2,), ["b"]),
        "fibre": rp_product_doc((14,) * 4, names)})  # 50625 terms of w
    garbage_left_by(capsys, "kappa", "--bundle", small, "--class", "w8")
    assert (garbage_left_by(capsys, "kappa", "--bundle", large, "--class", "w56")
            <= garbage_left_by(capsys, "kappa", "--bundle", small, "--class", "w8"))


def test_main_leaves_the_collector_on(capsys):
    assert gc.isenabled()
    run_cli(capsys, "genus", "--max-weight", "2")
    assert gc.isenabled()


def package_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_importtime(*argv, module="charclasses"):
    """stdout of ``python -m <module> *argv`` and the modules it imported."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", module, *argv],
        capture_output=True, text=True, check=True, env=package_env(),
    )
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    return done.stdout, imported


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path):
    # cli imports no package module at load; each handler imports what it
    # runs, and documents imports bundles only to decode a bundle.  The
    # command line is read off cli's own option table: argparse, with the
    # gettext and locale it loads, cost each process ~5 ms of start-up
    parser_modules = {"argparse", "gettext", "locale"}
    out, imported = run_importtime("--help")
    assert "verify" in out
    package = {name for name in imported if name.startswith("charclasses.")}
    assert package <= {"charclasses.cli", "charclasses.__main__"}
    assert not {"json", "fractions"} & imported
    assert not parser_modules & imported
    out, imported = run_importtime("--help", module="charclasses.cli")
    assert "verify" in out
    assert {name for name in imported if name.startswith("charclasses")} == {
        "charclasses"}
    assert not {"json", "fractions"} & imported
    out, imported = run_importtime("genus", "--max-weight", "3")
    assert out.startswith("K1 = 1/3*p1\n")
    assert "charclasses.genus" in imported
    assert not {"charclasses.documents", "charclasses.bundles",
                "charclasses.spaces"} & imported
    assert not parser_modules & imported
    out, imported = run_importtime("section5")
    assert out.startswith("R = 1\n")
    assert "charclasses.counterexample" in imported
    assert not {"charclasses.documents", "charclasses.bundles"} & imported
    path = write_json(tmp_path, "hp2.json", space_to_document(hp(2)))
    out, imported = run_importtime("signature", path)
    assert out == "signature = 1\n"
    assert "charclasses.documents" in imported
    assert "charclasses.bundles" not in imported
    assert not parser_modules & imported
    out, imported = run_importtime("bso", "--dimension", "4")
    assert out.startswith("characteristic 0\ngenerator e degree 4\n")
    assert "charclasses.spaces" in imported
    assert not {"charclasses.documents", "charclasses.bundles"} & imported
    assert not parser_modules & imported


def test_kappa_bso_and_genus_load_the_scalar_layer_only_at_the_edge(tmp_path):
    # integer arithmetic all the way: Fraction and PrimeScalar are built only
    # where a non-int scalar crosses the edge, and scalars loads fractions
    # only to parse a rational
    projectivization = write_json(tmp_path, "proj.json", {
        "kind": "projectivization",
        "base": {"characteristic": 0, "ring": {"generators": [
            {"name": "a", "degree": 2}, {"name": "b", "degree": 4}]}},
        "chern": ["a", "2*b - a^2", "a*b"],
    })
    out, imported = run_importtime("kappa", "--bundle", projectivization, "--class", "e")
    assert out == "kappa(e) = 3\n"
    assert "charclasses.bundles" in imported
    assert not {"charclasses.scalars", "fractions"} & imported
    product = write_json(tmp_path, "mod2.json", {
        "kind": "product", "base": rp_product_doc((2,), ["b"]),
        "fibre": rp_product_doc((2, 6), ["a0", "a1"])})
    out, imported = run_importtime("kappa", "--bundle", product, "--class", "w8")
    assert out == "kappa(w8) = 1\n"
    assert "charclasses.scalars" in imported
    assert "fractions" not in imported
    out, imported = run_importtime("bso", "--dimension", "4")
    assert out.startswith("characteristic 0\n")
    assert not {"charclasses.scalars", "fractions"} & imported
    out, imported = run_importtime("genus", "--max-weight", "3")
    assert out.startswith("K1 = 1/3*p1\n")
    assert "charclasses.scalars" not in imported
