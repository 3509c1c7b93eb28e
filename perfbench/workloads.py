"""Seeded workload generator and per-op correctness oracles.

Every workload is a list of ops (one pass).  An op is one CLI call,
``python -m charclasses <args>``, with its document on stdin, plus the exit
code and output that make it correct.  The same seed gives byte-identical
arguments and documents: documents are built here from closed forms, not
with the package under test.

A seed varies what does not change the amount of work (op order, output
format, generator names, coefficient draws, which of several same-sized
spaces fills a slot), so that runs with different seeds measure the same
work and their spread is the machine's, not the inputs'.

Expected outputs come from closed forms where they are cheap (signatures,
kappa(e) = rank, top Stiefel-Whitney numbers, section5, bso, malformed
documents).  The remaining outputs (genus tables, verify, other kappa
classes) are checked against the stdout digests in ``expected.json``,
recorded with ``record.py``; those ops draw their variable inputs from small
fixed catalogs so that every op any seed can produce has a digest.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterator

WORKLOADS = ("genus-signature", "kappa-rational", "kappa-mod2", "section5-verify")

# How many coefficient draws each kappa-rational slot has in its catalog.
VARIANTS = 4


@dataclass(frozen=True)
class Op:
    """One CLI call and what makes it correct.

    ``stdout`` is the exact expected output, or None when the output is
    checked against the digest recorded for ``key``.  ``stderr_prefix`` is
    checked only when given.
    """

    label: str
    args: tuple[str, ...]
    stdin: bytes = b""
    exit_code: int = 0
    stdout: bytes | None = None
    stderr_prefix: bytes | None = None

    @property
    def key(self) -> str:
        """Content address of the call: its arguments and its document."""
        h = hashlib.sha256(json.dumps(self.args).encode())
        h.update(b"\0")
        h.update(self.stdin)
        return h.hexdigest()[:32]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(op: Op, returncode: int, stdout: bytes, stderr: bytes,
          recorded: dict[str, dict]) -> bool:
    """The oracle: exit code, then stdout bytes (exact or by digest)."""
    if returncode != op.exit_code:
        return False
    if op.stderr_prefix is not None and not stderr.startswith(op.stderr_prefix):
        return False
    if op.stdout is not None:
        return stdout == op.stdout
    entry = recorded.get(op.key)
    return entry is not None and entry["stdout_sha256"] == digest(stdout)


# ----------------------------------------------------------------------
# polynomials as {exponent tuple: coefficient}, printed in the CLI's syntax


def poly_text(names: list[str], terms: dict[tuple[int, ...], int]) -> str:
    chunks = []
    for exps, coeff in terms.items():
        if not coeff:
            continue
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
        body = "*".join(factors)
        mag = abs(coeff)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        if chunks:
            chunks.append(f" - {body}" if coeff < 0 else f" + {body}")
        else:
            chunks.append(f"-{body}" if coeff < 0 else body)
    return "".join(chunks) or "0"


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


# ----------------------------------------------------------------------
# space documents (characteristic 0) with their signatures


@dataclass(frozen=True)
class Factor:
    """One factor of a product space: ('cp', n), ('hp', 2) or ('s', k)."""

    kind: str
    n: int

    @property
    def dimension(self) -> int:
        return {"cp": 2, "hp": 4, "s": 1}[self.kind] * self.n

    @property
    def signature(self) -> int:
        if self.kind == "cp":
            return 1 if self.n % 2 == 0 else 0
        return 1 if self.kind == "hp" else 0


def _factor_data(f: Factor) -> tuple[int, int, dict[int, int], int]:
    """(generator degree, nilpotency power, total_p by exponent, euler coeff)."""
    if f.kind == "cp":
        # p(CP^n) = (1 + h^2)^(n+1), e = (n+1) h^n
        p = {2 * j: comb(f.n + 1, j) for j in range(f.n // 2 + 1)}
        return 2, f.n + 1, p, f.n + 1
    if f.kind == "hp":
        return 4, 3, {0: 1, 1: 2, 2: 7}, 3
    return f.n, 2, {0: 1}, 2  # even sphere: x^2 = 0, e = 2x


def space_doc(factors: list[Factor], names: list[str]) -> dict:
    """The product of the factors, one generator each, as a space document."""
    gens, rels, fundamental = [], [], []
    total_p: dict = {(0,) * len(factors): 1}
    euler: dict = {(0,) * len(factors): 1}
    for i, (f, name) in enumerate(zip(factors, names)):
        degree, nil, p, e = _factor_data(f)
        top = nil - 1
        gens.append({"name": name, "degree": degree})
        rels.append({"lhs": f"{name}^{nil}", "rhs": "0"})
        fundamental.append(name if top == 1 else f"{name}^{top}")

        def at(k: int) -> tuple[int, ...]:
            return tuple(k if j == i else 0 for j in range(len(factors)))

        total_p = poly_mul(total_p, {at(k): c for k, c in p.items()})
        euler = poly_mul(euler, {at(top): e})
    return {
        "characteristic": 0,
        "ring": {"generators": gens, "relations": rels},
        "dimension": sum(f.dimension for f in factors),
        "fundamental": "*".join(fundamental),
        "total_p": poly_text(names, total_p),
        "euler": poly_text(names, euler),
    }


def _encode(doc: dict) -> bytes:
    return json.dumps(doc, indent=1).encode()


def _signature_out(value: int, fmt: str) -> bytes:
    if fmt == "json":
        return (json.dumps({"signature": f"{value}/1"}, indent=2) + "\n").encode()
    return f"signature = {value}\n".encode()


def _fmt_args(fmt: str) -> tuple[str, ...]:
    return ("--format", "json") if fmt == "json" else ()


# ----------------------------------------------------------------------
# genus-signature


# Genus table rungs.  Each process builds K_1..K_w, and K_12 alone is most
# of the cost of the top rung; both series cost the same within noise.
GENUS_RUNGS = (3, 6, 9, 12)

# Signature slots: (weight, same-dimension factor lists of similar cost).
# The ladder stops at weight 12, like the genus table; from dimension 80
# (weight 20) on, signature does not finish today (ROADMAP item 2).
SIGNATURE_SLOTS = (
    (12, ([Factor("cp", 24)], [Factor("cp", 12), Factor("cp", 12)],
          [Factor("s", 40), Factor("hp", 2)])),
    (10, ([Factor("cp", 20)], [Factor("cp", 10), Factor("cp", 10)],
          [Factor("cp", 16), Factor("hp", 2)])),
    (7, ([Factor("cp", 14)], [Factor("cp", 7), Factor("cp", 7)],
         [Factor("s", 20), Factor("hp", 2)], [Factor("cp", 10), Factor("hp", 2)])),
    (4, ([Factor("cp", 8)], [Factor("cp", 4), Factor("cp", 4)],
         [Factor("s", 8), Factor("hp", 2)], [Factor("cp", 4), Factor("hp", 2)])),
)

# Spaces of dimension 2 mod 4: the signature is 0 without any K_n.
ODD_HALF_SLOTS = (
    [Factor("cp", 23)], [Factor("cp", 9), Factor("cp", 12)],
    [Factor("s", 38), Factor("hp", 2)], [Factor("cp", 5), Factor("hp", 2)],
)

_NAMES = ("a", "b", "g", "h", "u", "v", "x", "y", "z")


def genus_op(series: str, weight: int, fmt: str) -> Op:
    return Op(f"genus {series} {weight} {fmt}",
              ("genus", "--series", series, "--max-weight", str(weight)) + _fmt_args(fmt))


def signature_op(factors: list[Factor], names: list[str], fmt: str) -> Op:
    value = 1
    for f in factors:
        value *= f.signature
    label = "x".join(f"{f.kind}{f.n}" for f in factors)
    return Op(f"signature {label} {fmt}", ("signature", "-") + _fmt_args(fmt),
              stdin=_encode(space_doc(factors, names)),
              stdout=_signature_out(value, fmt))


def genus_signature(rng: random.Random) -> list[Op]:
    ops = [genus_op(rng.choice(("L", "Ahat")), w, rng.choice(("text", "json")))
           for w in GENUS_RUNGS]
    slots = [rng.choice(choices) for _, choices in SIGNATURE_SLOTS]
    slots += rng.sample(ODD_HALF_SLOTS, 2)
    for factors in slots:
        names = rng.sample(_NAMES, len(factors))
        ops.append(signature_op(factors, names, rng.choice(("text", "json"))))
    return ops


def genus_catalog() -> Iterator[Op]:
    for series, w, fmt in itertools.product(("L", "Ahat"), GENUS_RUNGS, ("text", "json")):
        yield genus_op(series, w, fmt)


# ----------------------------------------------------------------------
# kappa-rational


def _monomials(degrees: list[int], total: int) -> list[tuple[int, ...]]:
    out = []

    def rec(i: int, left: int, acc: tuple[int, ...]) -> None:
        if i == len(degrees):
            if left == 0:
                out.append(acc)
            return
        for e in range(left // degrees[i] + 1):
            rec(i + 1, left - e * degrees[i], acc + (e,))

    rec(0, total, ())
    return out


@dataclass(frozen=True)
class ProjSlot:
    """kappa classes on the projectivization of a rank-``rank`` bundle.

    ``base`` is 'free:<degrees>' for a free base ring, or 'cp:<n>' for
    CP^n.  ``classes`` lists the classes a seed may pick for the slot.
    """

    base: str
    rank: int
    classes: tuple[str, ...]


KAPPA_SLOTS = (
    ProjSlot("free:2,4,6", 6, ("e^7",)),
    ProjSlot("free:2,4,6", 6, ("p1*p2*p3", "p1^3*p3", "p2^3")),
    ProjSlot("free:2,4,6,8,10", 5, ("e^6",)),
    ProjSlot("free:2,4,6,8", 4, ("e^5", "p1^4", "p1^2*p2")),
    ProjSlot("free:2,4", 3, ("e^4", "p1^2", "p1*p2")),
    ProjSlot("cp:12", 3, ("e^7", "p1^3")),
    ProjSlot("cp:20", 5, ("e^6", "p1*p2")),
)


def projectivization_doc(slot: ProjSlot, variant: int) -> dict:
    """Seeded homogeneous Chern classes c_1..c_rank on the slot's base.

    The coefficients depend on the slot and the variant only, so the
    catalog of documents is finite and every one has a recorded output.
    """
    kind, _, spec = slot.base.partition(":")
    draw = random.Random(f"{slot.base}/{slot.rank}/{variant}")
    if kind == "free":
        degrees = [int(d) for d in spec.split(",")]
        names = [f"c{i}" for i in range(1, len(degrees) + 1)]
        ring = {"generators": [{"name": n, "degree": d} for n, d in zip(names, degrees)],
                "relations": []}
        chern = []
        for i in range(1, slot.rank + 1):
            terms = {m: draw.choice((-1, 1)) * draw.randint(1, 9)
                     for m in _monomials(degrees, 2 * i)}
            chern.append(poly_text(names, terms))
    else:
        n = int(spec)
        ring = {"generators": [{"name": "h", "degree": 2}],
                "relations": [{"lhs": f"h^{n + 1}", "rhs": "0"}]}
        chern = [poly_text(["h"], {(i,): draw.choice((-1, 1)) * draw.randint(1, 9)})
                 for i in range(1, slot.rank + 1)]
    return {"kind": "projectivization",
            "base": {"characteristic": 0, "ring": ring}, "chern": chern}


def _kappa_out(cls: str, value: str, fmt: str) -> bytes:
    if fmt == "json":
        return (json.dumps({"class": cls, "kappa": value}, indent=2) + "\n").encode()
    return f"kappa({cls}) = {value}\n".encode()


def kappa_op(label: str, doc: dict, cls: str, fmt: str,
             closed_form: str | None = None) -> Op:
    return Op(f"kappa {label} {cls} {fmt}",
              ("kappa", "--bundle", "-", "--class", cls) + _fmt_args(fmt),
              stdin=_encode(doc),
              stdout=None if closed_form is None else _kappa_out(cls, closed_form, fmt))


def _proj_label(slot: ProjSlot, variant: int) -> str:
    return f"P(rank {slot.rank} over {slot.base} v{variant})"


def kappa_rational(rng: random.Random) -> list[Op]:
    ops = []
    for slot in KAPPA_SLOTS:
        variant = rng.randrange(VARIANTS)
        ops.append(kappa_op(_proj_label(slot, variant), projectivization_doc(slot, variant),
                            rng.choice(slot.classes), rng.choice(("text", "json"))))
    # kappa(e) is the Euler characteristic of the fibre CP^(rank-1)
    for slot in KAPPA_SLOTS:
        variant = rng.randrange(VARIANTS)
        ops.append(kappa_op(_proj_label(slot, variant), projectivization_doc(slot, variant),
                            "e", rng.choice(("text", "json")), closed_form=str(slot.rank)))
    return ops


def kappa_rational_catalog() -> Iterator[Op]:
    for slot in KAPPA_SLOTS:
        for variant, cls, fmt in itertools.product(range(VARIANTS), slot.classes,
                                                   ("text", "json")):
            yield kappa_op(_proj_label(slot, variant), projectivization_doc(slot, variant),
                           cls, fmt)


# ----------------------------------------------------------------------
# kappa-mod2


def rp_product_doc(ns: tuple[int, ...], names: list[str]) -> dict:
    """The product of RP^n_i over F_2, n_i = 2^j - 2.

    w(RP^n) = (1 + a)^(n+1), and for n + 1 = 2^j - 1 every binomial
    coefficient is odd, so the total class is the sum of all monomials.
    """
    def mon(exps: tuple[int, ...]) -> str:
        return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e) or "1"

    top = mon(ns)
    return {
        "characteristic": 2,
        "ring": {"generators": [{"name": n, "degree": 1} for n in names],
                 "relations": [{"lhs": f"{n}^{k + 1}", "rhs": "0"} for n, k in zip(names, ns)]},
        "dimension": sum(ns),
        "fundamental": top,
        "total_p": "1",
        "euler": top,
        "total_w": " + ".join(mon(e) for e in itertools.product(*(range(k + 1) for k in ns))),
    }


# (fibre factors, classes of fibre degree).  The top class w_N always
# integrates to the Euler characteristic mod 2, which is 1 here.  The
# 4 x RP^14 document (50625 terms of w) is dominated by decoding, the
# 2 x RP^6 x 2 x RP^14 classes by ring multiplication.  The classes of one
# slot cost the same within a few per cent.
MOD2_SLOTS = (
    ((14, 14, 14, 14), ("w56",)),
    ((6, 6, 14, 14), ("w10^4", "w8^5")),
    ((6, 6, 6, 6), ("w8^3", "w6^4", "w4^6")),
    ((14, 14, 14), ("w21^2", "w1*w20^2", "w10*w11*w21")),
    ((6, 14, 14), ("w17^2", "w2*w4*w6*w8*w14")),
    ((6, 6, 14), ("w13^2", "w2^13", "w3*w5*w7*w11")),
    ((2, 6, 14), ("w11^2", "w1*w3*w7*w11", "w2^11")),
)


def _mod2_doc(ns: tuple[int, ...], base: int) -> dict:
    names = [f"a{i}" for i in range(len(ns))]
    return {"kind": "product", "base": rp_product_doc((base,), ["b"]),
            "fibre": rp_product_doc(ns, names)}


def _mod2_label(ns: tuple[int, ...], base: int) -> str:
    return "RP%d x (%s)" % (base, " x ".join(f"RP{n}" for n in ns))


def kappa_mod2(rng: random.Random) -> list[Op]:
    ops = []
    for ns, classes in MOD2_SLOTS:
        for cls in dict.fromkeys((rng.choice(classes), f"w{sum(ns)}")):
            ops.append(_mod2_op(ns, rng.choice((2, 6)), cls, rng.choice(("text", "json"))))
    return ops


def _mod2_op(ns: tuple[int, ...], base: int, cls: str, fmt: str) -> Op:
    top = f"w{sum(ns)}"
    return kappa_op(_mod2_label(ns, base), _mod2_doc(ns, base), cls, fmt,
                    closed_form="1" if cls == top else None)


def kappa_mod2_catalog() -> Iterator[Op]:
    for ns, classes in MOD2_SLOTS:
        for base, cls, fmt in itertools.product((2, 6), classes, ("text", "json")):
            if cls != f"w{sum(ns)}":
                yield kappa_op(_mod2_label(ns, base), _mod2_doc(ns, base), cls, fmt)


# ----------------------------------------------------------------------
# section5-verify


def _term(coeff: Fraction, monomial: str) -> str:
    if coeff == 0:
        return "0"
    sign = "-" if coeff < 0 else ""
    mag = abs(coeff)
    return f"{sign}{monomial}" if mag == 1 else f"{sign}{mag}*{monomial}"


def _machine(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def section5_out(r_text: str, fmt: str) -> bytes:
    """The perturbed run in closed form: p4 = 4725/127 R xy, p5 = 124065/9271 R xy^2."""
    r = Fraction(r_text)
    p4 = _term(Fraction(4725, 127) * r, "x*y")
    p5 = _term(Fraction(124065, 9271) * r, "x*y^2")
    integral = Fraction(124065, 9271) * r
    if fmt == "json":
        doc = {"R": _machine(r), "p_low_unchanged": [True, True, True], "p4": p4, "p5": p5,
               "sign_F": "1/1", "casson": "0/1", "p5_integral": _machine(integral)}
        return (json.dumps(doc, indent=2) + "\n").encode()
    lines = [f"R = {r}", "p1 p2 p3 unchanged: yes yes yes", f"p4 = {p4}", f"p5 = {p5}",
             "sign(F) = 1", "casson obstruction = 0", f"p5 integral = {integral}"]
    return ("\n".join(lines) + "\n").encode()


def _digits(rng: random.Random, n: int) -> str:
    return str(rng.randint(1, 9)) + "".join(str(rng.randint(0, 9)) for _ in range(n - 1))


def section5_r_values(rng: random.Random) -> list[str]:
    """Nonzero R: small and large integers and fractions, up to 1000 digits."""
    return [
        str(rng.randint(1, 99)),
        "-" + str(rng.randint(1, 9999)),
        f"{rng.randint(1, 999)}/{rng.randint(2, 999)}",
        f"-{_digits(rng, 40)}/{_digits(rng, 30)}",
        _digits(rng, 1000),
        f"{_digits(rng, 300)}/{_digits(rng, 300)}",
    ]


def bso_out(dimension: int, characteristic: int, euler: bool, fmt: str) -> bytes:
    """Closed-form BSO presentation through the given fibre dimension."""
    if characteristic == 2:
        gens = [(f"w{i}", i) for i in range(2, dimension + 1)]
        rels = []
    else:
        m = dimension // 2
        gens = [(f"p{i}", 4 * i) for i in range(1, m + 1)]
        rels = []
        if dimension % 2 == 0:
            gens = [("e", 2 * m)] + gens
            rels = [("e^2", f"p{m}")] if euler else []
    if fmt == "json":
        doc = {"characteristic": characteristic,
               "generators": [{"name": n, "degree": d} for n, d in gens],
               "relations": [{"lhs": lhs, "rhs": rhs} for lhs, rhs in rels]}
        return (json.dumps(doc, indent=2) + "\n").encode()
    lines = [f"characteristic {characteristic}"]
    lines += [f"generator {n} degree {d}" for n, d in gens]
    lines += [f"relation {lhs} = {rhs}" for lhs, rhs in rels]
    return ("\n".join(lines) + "\n").encode()


def bso_op(dimension: int, characteristic: int, euler: bool, fmt: str) -> Op:
    args = ("bso", "--dimension", str(dimension), "--characteristic", str(characteristic))
    if not euler:
        args += ("--no-assume-euler-relation",)
    return Op(f"bso {dimension} char {characteristic}{'' if euler else ' no-euler'} {fmt}",
              args + _fmt_args(fmt), stdout=bso_out(dimension, characteristic, euler, fmt))


# Each breaks one field of a valid document; the CLI must exit 2 and name it.
def _break_degree(doc: dict, i: int) -> str:
    doc["ring"]["generators"][i]["degree"] = 0
    return f"/ring/generators/{i}/degree"


def _break_fundamental(doc: dict, i: int) -> str:
    doc["fundamental"] = doc["ring"]["generators"][i]["name"] + " + 1"
    return "/fundamental"


def _break_total_p(doc: dict, i: int) -> str:
    doc["total_p"] = "1 + 2*q"
    return "/total_p"


def _drop_dimension(doc: dict, i: int) -> str:
    del doc["dimension"]
    return "/dimension"


def _break_relation(doc: dict, i: int) -> str:
    del doc["ring"]["relations"][i]["rhs"]
    return f"/ring/relations/{i}/rhs"


SPACE_BREAKS: tuple[Callable[[dict, int], str], ...] = (
    _break_degree, _break_fundamental, _break_total_p, _drop_dimension, _break_relation,
)


def malformed_space_op(rng: random.Random, fmt: str) -> Op:
    factors = rng.choice([[Factor("cp", 4), Factor("hp", 2)], [Factor("cp", 6)],
                          [Factor("s", 8), Factor("cp", 2)]])
    doc = space_doc(factors, rng.sample(_NAMES, len(factors)))
    breaker = rng.choice(SPACE_BREAKS)
    pointer = breaker(doc, rng.randrange(len(factors)))
    return Op(f"signature malformed {pointer}", ("signature", "-") + _fmt_args(fmt),
              stdin=_encode(doc), exit_code=2, stdout=b"",
              stderr_prefix=f"error: {pointer}: ".encode())


def malformed_bundle_op(rng: random.Random, fmt: str) -> Op:
    slot = rng.choice(KAPPA_SLOTS[3:5])
    doc = projectivization_doc(slot, rng.randrange(VARIANTS))
    if rng.random() < 0.5:
        doc["kind"] = "twisted"
        pointer = "/kind"
    else:
        i = rng.randrange(len(doc["chern"]))
        doc["chern"][i] = 7
        pointer = f"/chern/{i}"
    return Op(f"kappa malformed {pointer}",
              ("kappa", "--bundle", "-", "--class", "e") + _fmt_args(fmt),
              stdin=_encode(doc), exit_code=2, stdout=b"",
              stderr_prefix=f"error: {pointer}: ".encode())


def verify_op(fmt: str) -> Op:
    return Op(f"verify {fmt}", ("verify",) + _fmt_args(fmt))


def section5_op(r_text: str, fmt: str) -> Op:
    return Op(f"section5 R={r_text[:12]} {fmt}", ("section5", f"--R={r_text}") + _fmt_args(fmt),
              stdout=section5_out(r_text, fmt))


def section5_verify(rng: random.Random) -> list[Op]:
    def fmt() -> str:
        return rng.choice(("text", "json"))

    ops = [section5_op(r, fmt()) for r in section5_r_values(rng)]
    ops += [verify_op("text"), verify_op("json")]
    ops += [bso_op(rng.randint(2, 24), 0, True, fmt()),
            bso_op(rng.randint(2, 24), 0, False, fmt()),
            bso_op(rng.randint(1, 24), 0, True, fmt()),
            bso_op(rng.randint(2, 24), 2, True, fmt())]
    ops += [malformed_space_op(rng, fmt()) for _ in range(3)]
    ops += [malformed_bundle_op(rng, fmt()) for _ in range(2)]
    return ops


def section5_verify_catalog() -> Iterator[Op]:
    yield verify_op("text")
    yield verify_op("json")


# ----------------------------------------------------------------------

_GENERATORS = {
    "genus-signature": genus_signature,
    "kappa-rational": kappa_rational,
    "kappa-mod2": kappa_mod2,
    "section5-verify": section5_verify,
}


def generate(workload: str, seed: int) -> list[Op]:
    """One pass of the workload, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _GENERATORS[workload](rng)
    rng.shuffle(ops)
    return ops


def catalog() -> Iterator[Op]:
    """Every op checked by digest that any seed can produce."""
    yield from genus_catalog()
    yield from kappa_rational_catalog()
    yield from kappa_mod2_catalog()
    yield from section5_verify_catalog()
