"""Seeded inputs for the benchmark workloads and the exact checks on outputs.

Everything here is plain Python over `fractions.Fraction`: the inputs are
JSON-ready data, and the checks re-derive exact values independently of
the program (series products are done here, not through `orbitdeg`).
The same (workload, seed) pair always yields the same inputs.

A workload is one *pass*: a fixed list of ops that the closed loop
replays until the run's time is up.  Every pass of a workload has the
same composition whatever the seed (sizes come from fixed ladders, the
seed picks contents and order), so that figures from different seeds
are comparable.  A pass has an odd number of ops, 25 or 35, so that the
median and the 90th percentile of whole passes fall in the middle of
one rung's band of latencies rather than between two rungs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import factorial, gcd
from typing import Any, Iterable, Optional, Sequence

ORDER = 9  # coefficients H^0..H^8

#: Synthetic pass: compute ops with these many point features (one per
#: rung, shuffled), sized so one compute op stays near 100 ms at the
#: commit that introduced the benchmark (Python 3.11, one core of a
#: 2-vCPU VM).
SYNTHETIC_FEATURES = tuple(range(40, 290, 10))
SYNTHETIC_UNIONS = 5
SYNTHETIC_SCALES = 5
SYNTHETIC_MAX_DEGREE = 200

#: Newton pass: side-polynomial degrees, each used five times.  The cap
#: keeps one op under about half a second at the commit that introduced
#: the benchmark (on the machine above, degree 44 took 215-235 ms and
#: degree 48 505-530 ms).
NEWTON_DEGREES = (8, 17, 26, 35, 44)
NEWTON_REPEATS = 5

#: Side steps (run, drop) with 0 < drop < run, gcd 1: slopes in (-1, 0).
_STEPS = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 2), (5, 3))


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"orbitdeg-bench:{workload}:{seed}")


def rational(value: Any) -> Fraction:
    """An exact value from report JSON: an int or a "num/den" string."""
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def rational_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _composition(rng: random.Random, total: int) -> list[int]:
    parts = []
    while total > 0:
        part = rng.randint(1, total)
        parts.append(part)
        total -= part
    rng.shuffle(parts)
    return parts


# ---------------------------------------------------------------------------
# exact truncated series, independent of orbitdeg.series
# ---------------------------------------------------------------------------


def series_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * ORDER
    for i, x in enumerate(a):
        if x:
            for j in range(ORDER - i):
                out[i + j] += x * b[j]
    return out


def exp_series(d: int) -> list[Fraction]:
    return [Fraction(d**i, factorial(i)) for i in range(ORDER)]


def app_from_breakdown(degree: int, terms: Iterable[Sequence[Fraction]]) -> list[Fraction]:
    """exp(d*H) * (1 + sum of terms): the additive form of the assembly.

    Local terms have order >= 6 and global ones order >= 3, so their
    products vanish mod H^9 and the report's `app` must equal this.
    """
    total = [Fraction(1)] + [Fraction(0)] * (ORDER - 1)
    for term in terms:
        total = [x + y for x, y in zip(total, term)]
    return series_mul(exp_series(degree), total)


def check_report(obj: dict, app: Optional[Sequence[Fraction]] = None) -> list[str]:
    """Internal consistency of a decoded report, and `app` if given.

    a_i = i! c_i, the orbit dimension is the last nonzero a_i, and the
    predegree is a_dim.
    """
    problems = []
    got_app = [rational(v) for v in obj["app"]]
    poly = [rational(v) for v in obj["predegree_polynomial"]]
    if app is not None and got_app != list(app):
        problems.append("app differs from the expected series")
    if poly != [factorial(i) * c for i, c in enumerate(got_app)]:
        problems.append("predegree_polynomial is not i! * app")
    dim = max((i for i, a in enumerate(poly) if a), default=0)
    if obj["orbit_dimension"] != dim:
        problems.append(f"orbit_dimension {obj['orbit_dimension']} != {dim}")
    if rational(obj["predegree"]) != poly[dim]:
        problems.append("predegree is not a_dim")
    return problems


def report_values(obj: dict) -> dict:
    """The exact values a reference pins: app, polynomial, dimension, degree."""
    return {
        "app": [rational_text(rational(v)) for v in obj["app"]],
        "predegree_polynomial": [rational_text(rational(v)) for v in obj["predegree_polynomial"]],
        "orbit_dimension": obj["orbit_dimension"],
        "degree": None if obj.get("degree") is None else rational_text(rational(obj["degree"])),
    }


def fixture_problems(obj: dict, expected: dict) -> list[str]:
    """Compare a decoded report with a golden fixture's `expected` block."""
    problems = []
    if "orbit_dimension" in expected and obj["orbit_dimension"] != expected["orbit_dimension"]:
        problems.append("orbit_dimension")
    if "predegree" in expected and rational(obj["predegree"]) != rational(expected["predegree"]):
        problems.append("predegree")
    if "degree" in expected:
        if obj.get("degree") is None or rational(obj["degree"]) != rational(expected["degree"]):
            problems.append("degree")
    if "app" in expected and [rational(v) for v in obj["app"]] != [rational(v) for v in expected["app"]]:
        problems.append("app")
    for index, value in expected.get("a", {}).items():
        if rational(obj["predegree_polynomial"][int(index)]) != rational(value):
            problems.append(f"a{index}")
    return problems


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def corpus_order(seed: int, count: int) -> list[int]:
    order = list(range(count))
    rng_for("corpus", seed).shuffle(order)
    return order


# ---------------------------------------------------------------------------
# synthetic descriptors
# ---------------------------------------------------------------------------


def _irreducible(rng: random.Random) -> tuple[dict, int]:
    """A valid one-branch singularity and the flexes it absorbs."""
    m = rng.randint(2, 4)
    n = rng.randint(m + 1, m + 6)
    essential: list[int] = []
    g = m
    if n % m:
        essential.append(n)
        g = gcd(g, n)
    last = n
    while g > 1:
        e = last + rng.randint(1, 4)
        while e % g == 0:
            e += 1
        essential.append(e)
        g = gcd(g, e)
        last = e
    chain = [m]
    for e in essential:
        chain.append(gcd(chain[-1], e))
    exps = [n] + essential + [0]
    absorbed = 3 * m * n - 2 * m - 2 * n
    absorbed += sum(3 * (exps[j + 1] - exps[j]) * (chain[j] - 1) for j in range(len(essential) + 1))
    return {"kind": "irreducible", "m": m, "n": n, "essential": essential}, absorbed


def _side(rng: random.Random) -> dict:
    drop = rng.randint(1, 4)
    run = drop + rng.randint(1, 5)
    j0 = rng.randint(0, 4)
    k1 = rng.randint(0, 3)
    return {"from": [j0, k1 + drop], "to": [j0 + run, k1], "s": _composition(rng, gcd(run, drop))}


def _weight(rng: random.Random, fractional: bool) -> object:
    if not fractional:
        return rng.randint(1, 9)
    den = rng.randint(2, 9)
    num = rng.randint(1, 4 * den)
    while num % den == 0:
        num += 1
    return f"{num}/{den}"


def _composite(rng: random.Random, fractional: bool) -> tuple[dict, int]:
    point: dict[str, Any] = {"kind": "composite"}
    if rng.random() < 0.6:
        point["tangent_cone"] = [rng.randint(1, 3) for _ in range(rng.randint(1, 5))]
    point["sides"] = [_side(rng) for _ in range(rng.randint(0, 2))]
    point["truncations"] = [
        {"ell": rng.randint(1, 3), "W": _weight(rng, fractional), "s": _composition(rng, rng.randint(1, 5))}
        for _ in range(rng.randint(1, 2))
    ]
    absorbed = rng.randint(0, 4)
    point["absorbed_flexes"] = absorbed
    return point, absorbed


def _multiple_point(rng: random.Random) -> tuple[dict, int]:
    m = rng.randint(2, 4)
    contacts = [rng.randint(m + 1, m + 3) for _ in range(rng.randint(0, m))]
    absorbed = rng.randint(0, 6)
    return {"kind": "ordinary_multiple_point", "m": m, "contacts": contacts, "absorbed_flexes": absorbed}, absorbed


def _components(rng: random.Random, d: int) -> tuple[list[dict], list[dict]]:
    """Lines and nonlinear components whose degrees sum to d."""
    linear: list[int] = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
    while sum(linear) > d - 2:
        linear.pop()
    rest = d - sum(linear)
    nonlinear = []
    while rest >= 2:
        mult = 2 if rest >= 8 and rng.random() < 0.3 else 1
        deg = rng.randint(2, max(2, rest // mult)) if len(nonlinear) < 2 else rest // mult
        nonlinear.append({"deg": deg, "mult": mult})
        rest -= deg * mult
    linear += [1] * rest
    lines = [{"mult": m, "meets": _composition(rng, d - m)} for m in linear]
    return lines, nonlinear


def synthetic_descriptor(
    rng: random.Random, degree: int, features: int, *, single: bool, irreducible: bool, fractional: bool
) -> dict:
    """A valid descriptor of the given degree with `features` point features.

    The share of each point kind is fixed (35% flexes, 20% irreducible
    points when `irreducible`, 10% ordinary multiple points, the rest
    composite points); the seed picks their data and order.  A `single`
    curve is one reduced component with automatic flex bookkeeping (when
    the absorbed flexes fit the 3d(d-2) budget); the others mix lines and
    nonlinear components with an explicit flex count.
    """
    flexes = round(0.35 * features)
    irreducibles = round(0.2 * features) if irreducible else 0
    multiples = round(0.1 * features)
    kinds = ["flex"] * flexes + ["irreducible"] * irreducibles + ["multiple"] * multiples
    kinds += ["composite"] * (features - len(kinds))
    rng.shuffle(kinds)
    points = []
    absorbed = 0
    for i, kind in enumerate(kinds):
        if kind == "flex":
            contact = rng.randint(3, 6)
            point, taken = {"kind": "flex", "contact": contact}, contact - 2
        elif kind == "irreducible":
            point, taken = _irreducible(rng)
        elif kind == "multiple":
            point, taken = _multiple_point(rng)
        else:
            point, taken = _composite(rng, fractional)
        if i % 2:
            point["label"] = f"p{i}"
        points.append(point)
        absorbed += taken
    out: dict[str, Any] = {"degree": degree}
    if single:
        out["nonlinear"] = [{"deg": degree, "mult": 1}]
        budget = 3 * degree * (degree - 2)
        out["flexes"] = "auto" if absorbed <= budget else rng.randint(0, budget)
    else:
        out["linear"], out["nonlinear"] = _components(rng, degree)
        out["flexes"] = rng.randint(0, 3 * degree)
    out["points"] = points
    return out


def synthetic_pass(seed: int) -> list[dict]:
    """One pass of synthetic ops.

    Compute ops carry a descriptor text and an erratum mode; union and
    scale ops name earlier compute ops of the same pass by index.  Each
    compute op is one rung of the feature ladder, and its degree, curve
    type and flags (strict mode 1/4, irreducible points 1/2, fractional
    truncation weights 1/2) follow from the rung; unions and scales take
    fixed rungs too.  The seed picks the curves' data and the order.
    """
    rng = rng_for("synthetic", seed)
    count = len(SYNTHETIC_FEATURES)
    degrees = [round(3 + (SYNTHETIC_MAX_DEGREE - 3) * i / (count - 1)) for i in range(count)]
    rungs = []
    for rung, features in enumerate(SYNTHETIC_FEATURES):
        degree = degrees[rung * 7 % count]  # a fixed scatter of degree against size
        strict, irreducible, fractional = rung % 4 == 0, rung % 2 == 0, rung // 2 % 2 == 0
        desc = synthetic_descriptor(
            rng, degree, features, single=rung // 4 % 2 == 0, irreducible=irreducible, fractional=fractional
        )
        rungs.append(
            {
                "kind": "compute",
                "text": json.dumps(desc),
                "degree": degree,
                "strict": strict,
                "irreducible": irreducible,
                "fractional_w": fractional,
                "features": len(desc["points"]) + len(desc.get("linear", [])) + len(desc["nonlinear"]),
            }
        )
    extra = []
    for k in range(SYNTHETIC_UNIONS):
        left, right = rungs[2 * k], rungs[count - 1 - 2 * k]
        extra.append(
            {
                "kind": "union",
                "left": left,
                "right": right,
                "crossings": rng.randint(0, 20),
                "line_crossings": rng.randint(0, 20),
                "tangencies": rng.randint(0, 10),
                "degree": left["degree"] + right["degree"],
            }
        )
    for k in range(SYNTHETIC_SCALES):
        source, multiple = rungs[4 * k + 1], 2 + k % 3
        extra.append({"kind": "scale", "source": source, "multiple": multiple, "degree": source["degree"] * multiple})
    ops = list(rungs)
    rng.shuffle(ops)
    # each union/scale goes to a random place after its operands, which
    # it then names by their index in the pass
    operands = ("left", "right", "source")
    for op in extra:
        after = max(_position(ops, op[key]) for key in operands if key in op)
        ops.insert(rng.randint(after + 1, len(ops)), op)
    for op in extra:
        for key in operands:
            if key in op:
                op[key] = _position(ops, op[key])
    return ops


def _position(ops: list[dict], target: dict) -> int:
    return next(i for i, op in enumerate(ops) if op is target)


def synthetic_meta(ops: list[dict]) -> dict:
    computes = [op for op in ops if op["kind"] == "compute"]
    return {
        "ops_share": {k: sum(op["kind"] == k for op in ops) / len(ops) for k in ("compute", "union", "scale")},
        "curves_fractional_w_share": sum(op["fractional_w"] for op in computes) / len(computes),
        "curves_irreducible_share": sum(op["irreducible"] for op in computes) / len(computes),
        "curves_strict_share": sum(op["strict"] for op in computes) / len(computes),
        "features_per_curve": [min(op["features"] for op in computes), max(op["features"] for op in computes)],
        "degree_range": [min(op["degree"] for op in computes), max(op["degree"] for op in computes)],
    }


# ---------------------------------------------------------------------------
# newton supports
# ---------------------------------------------------------------------------


def poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def monic(p: Sequence[Fraction]) -> list[Fraction]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return [c / p[-1] for c in p]


#: (factor degree, multiplicity) blocks that build every side polynomial,
#: taken in this order while they fit, then simple linear roots.  The
#: multiplicity structure and the set of factors depend on the degree
#: only; the seed decides which factor carries which multiplicity.  This
#: keeps the cost of the squarefree decomposition nearly the same for
#: every seed.
_BLOCKS = ((1, 1), (1, 2), (2, 1), (1, 3), (1, 1), (2, 2), (1, 1), (1, 4), (2, 1), (1, 2))
_CONSTS = (1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7)


def _factor_pool(monic: bool) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Linear factors with distinct nonzero rational roots and distinct
    irreducible monic quadratics, simplest first."""
    linear, roots = [], set()
    for lead in (1,) if monic else range(1, 6):
        for const in _CONSTS:
            if Fraction(-const, lead) not in roots:
                roots.add(Fraction(-const, lead))
                linear.append([Fraction(const), Fraction(lead)])
    quadratic = [[Fraction(c), Fraction(b), Fraction(1)] for c in range(1, 10) for b in range(-5, 6) if b * b < 4 * c]
    return linear, quadratic


def side_polynomial(rng: random.Random, degree: int, leading: Optional[int] = None) -> tuple[list[int], list[list[int]]]:
    """A product of small-integer factors raised to multiplicities.

    The factors are squarefree and pairwise coprime, so the root profile
    is known exactly.  With `leading` the factors are monic and the
    product is scaled to that leading coefficient.  Returns the integer
    coefficients (constant first) and the [mult, roots] profile.
    """
    blocks = []
    total = 0
    for roots, mult in _BLOCKS * (degree // 10 + 1):
        if total + roots * mult <= degree:
            blocks.append((roots, mult))
            total += roots * mult
    blocks += [(1, 1)] * (degree - total)
    linear, quadratic = _factor_pool(monic=leading is not None)
    linear = linear[: sum(roots == 1 for roots, _ in blocks)]
    quadratic = quadratic[: sum(roots == 2 for roots, _ in blocks)]
    rng.shuffle(linear)
    rng.shuffle(quadratic)
    product = [Fraction(1)]
    roots_by_mult: dict[int, int] = {}
    for roots, mult in blocks:
        factor = quadratic.pop() if roots == 2 else linear.pop()
        for _ in range(mult):
            product = poly_mul(product, factor)
        roots_by_mult[mult] = roots_by_mult.get(mult, 0) + roots
    scale = leading if leading is not None else rng.choice((1, -1))
    coeffs = [int(c * scale) for c in product]
    return coeffs, sorted(([m, r] for m, r in roots_by_mult.items()), reverse=True)


def newton_support(rng: random.Random, side_degree: int) -> dict:
    """A support whose polygon has a steep side (not qualifying), a main
    qualifying side carrying a side polynomial of `side_degree`, and
    sometimes a second, flatter qualifying side of degree 1-3; plus
    terms strictly above the polygon.

    Returns the input ({"degree", "terms"}) and what the output must say.
    """
    run, drop = rng.choice(_STEPS)
    sides_spec = [(run, drop, side_degree)]
    flatter = [(r, q) for r, q in _STEPS if q * run < drop * r]
    if flatter and rng.random() < 0.5:
        r2, q2 = rng.choice(flatter)
        sides_spec.append((r2, q2, rng.randint(1, 3)))
    j = rng.randint(1, 3)
    k = sum(q * n for _, q, n in sides_spec) + rng.randint(0, 2)
    vertices = [(0, k + 2 * j), (j, k)]
    terms: dict[tuple[int, int], int] = {(0, k + 2 * j): rng.choice((-2, -1, 1, 2))}
    expected_sides = []
    for r, q, n in sides_spec:
        # consecutive sides share a vertex, hence that vertex's coefficient
        coeffs, profile = side_polynomial(rng, n, terms.get((j, k)))
        # the lattice point t steps along the side carries gamma_t, and the
        # side polynomial's coefficient of xi^u is gamma_{n-u}
        for t in range(n + 1):
            if coeffs[n - t]:
                terms[(j + t * r, k - t * q)] = coeffs[n - t]
        start = (j, k)
        j, k = j + n * r, k - n * q
        vertices.append((j, k))
        expected_sides.append({"from": list(start), "to": [j, k], "poly": coeffs, "profile": profile})
    # terms strictly above one segment of the convex chain lie above the
    # whole chain, so they change neither the vertices nor the sides
    for _ in range(rng.randint(2, 6)):
        a = rng.randrange(len(vertices) - 1)
        (x0, y0), (x1, y1) = vertices[a], vertices[a + 1]
        x = rng.randint(x0, x1)
        y = y0 + Fraction((y1 - y0) * (x - x0), x1 - x0)
        point = (x, int(y) + 1 + rng.randint(0, 2))
        if point not in terms:
            terms[point] = rng.choice((-3, -2, -1, 1, 2, 3))
    degree = max(a + b for a, b in terms) + rng.randint(0, 2)
    on_line = [a for (a, b) in terms if b == 0]
    return {
        "input": {"degree": degree, "terms": [[a, b, c] for (a, b), c in sorted(terms.items())]},
        "vertices": [list(v) for v in vertices],
        "multiplicity": min(a + b for a, b in terms),
        "contact": min(on_line) if on_line else "infinite",
        "sides": expected_sides,
    }


def newton_pass(seed: int) -> list[dict]:
    rng = rng_for("newton", seed)
    degrees = [d for d in NEWTON_DEGREES for _ in range(NEWTON_REPEATS)]
    rng.shuffle(degrees)
    return [newton_support(rng, d) for d in degrees]


def newton_problems(payload: dict, case: dict) -> list[str]:
    """Exact reconstruction of a newton report against its construction.

    The side polynomial read from the reported coefficients must be the
    monic product of the constructed factors raised to their
    multiplicities, and the profile and s values must match.
    """
    problems = []
    if payload["polygon"]["vertices"] != case["vertices"]:
        problems.append("polygon vertices")
    if payload["multiplicity"] != case["multiplicity"] or payload["contact"] != case["contact"]:
        problems.append("local invariants")
    if len(payload["sides"]) != len(case["sides"]):
        return problems + ["number of qualifying sides"]
    for got, want in zip(payload["sides"], case["sides"]):
        gammas = [rational(g) for g in got["coefficients"]]
        poly = [gammas[len(gammas) - 1 - u] for u in range(len(gammas))]
        if got["from"] != want["from"] or got["to"] != want["to"]:
            problems.append("side endpoints")
        elif monic(poly) != monic([Fraction(c) for c in want["poly"]]):
            problems.append(f"side {want['from']}: polynomial")
        if got["profile"] != want["profile"]:
            problems.append(f"side {want['from']}: profile")
        s = sorted((m for m, r in want["profile"] for _ in range(r)), reverse=True)
        if got["s"] != s:
            problems.append(f"side {want['from']}: s")
    return problems


def newton_meta(cases: list[dict]) -> dict:
    hist: dict[str, int] = {}
    for case in cases:
        for side in case["sides"]:
            key = str(len(side["poly"]) - 1)
            hist[key] = hist.get(key, 0) + 1
    return {"side_degree_histogram": dict(sorted(hist.items(), key=lambda kv: int(kv[0])))}


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


#: Corpus replays per cli-cold pass.  A replay is the slowest cold op (it
#: assembles every fixture), and with 7 of the 35 ops in a pass the 90th
#: percentile falls inside their band instead of in the noisy tail of the
#: one-file commands.
CLI_CORPUS_REPLAYS = 7


def cli_pass(seed: int, fixture_names: Sequence[str]) -> list[dict]:
    """One pass of cold CLI ops, in a seeded order: compute on every
    fixture, two unions, one scale, one newton and the corpus replays."""
    rng = rng_for("cli-cold", seed)
    ops: list[dict] = [{"kind": "compute", "fixture": name} for name in fixture_names]
    for _ in range(2):
        left, right = rng.sample(list(fixture_names), 2)
        ops.append(
            {
                "kind": "union",
                "left": left,
                "right": right,
                "crossings": rng.randint(0, 6),
                "line_crossings": rng.randint(0, 6),
                "tangencies": rng.randint(0, 3),
            }
        )
    ops.append({"kind": "scale", "fixture": rng.choice(list(fixture_names)), "multiple": rng.randint(2, 4)})
    ops.append({"kind": "newton", "case": newton_support(rng, rng.randint(6, 12))})
    ops += [{"kind": "corpus"}] * CLI_CORPUS_REPLAYS
    rng.shuffle(ops)
    return ops
