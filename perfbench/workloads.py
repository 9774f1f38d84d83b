"""Seeded request lists for the four benchmark workloads.

A request is the argv a user would type after ``diracforge``, always with
``--format json`` so that answers can be checked.  The one exception is
``ORACLE``: the library cross-check kernelIndex == diracInduct, which no
subcommand exposes; the runner executes it in a request child like any
other request.

The seed shuffles the order of a request list and picks, slot by slot,
between inputs of the same size: a weight or its dual, a pair of
isomorphic B2/C2 labels, torus coordinates, a permutation of torus axes,
a reduction level.  Sizes stay fixed: the A1 weights, the A1:T ladder,
D4 (3,2,2,2), the toric models and the series windows.  So two seeds ask
different questions of about the same total cost, which keeps
run-to-run spread down to noise.
"""

import json
import random

ORACLE = "induction-oracle"

WORKLOADS = ("kostant", "relative", "characters_cold", "characters_warm")

# Passes of each list in a run of NOMINAL_SECONDS.  At the commit that
# defined the benchmark (2-core x86-64 VM, Python 3.11.7, Fraction
# rationals) one pass takes about 6.8, 7.3, 4.4 and 1.4 s, so a run times
# 20 to 31 s of requests.  The count must not depend on the speed of the
# commit under test, or two commits would replay a different number of
# requests and their tail percentiles would differ.  Each count puts the
# tail sample (ten samples beyond it) inside the samples of one request,
# not on the edge between two requests of different cost, and the median
# inside the samples of the middle request.
NOMINAL_SECONDS = 20
PASSES = {
    "kostant": 3,
    "relative": 3,
    "characters_cold": 7,
    "characters_warm": 16,
}


def passes_for(workload, seconds):
    """Passes of the request list in a run of ``seconds``."""
    return max(1, round(PASSES[workload] * seconds / NOMINAL_SECONDS))


def _w(coords):
    return ",".join(str(c) for c in coords)


def _cli(*argv):
    return list(argv) + ["--format", "json"]


def _kostant(rng):
    t1 = rng.randint(-9, 9)
    t2 = (rng.randint(-9, 9), rng.randint(-9, 9))
    a, b = rng.choice([(1, 2), (2, 1)])
    return [
        _cli("verify-kostant", "--type", "A2", "--weight", "0,0"),
        _cli("verify-kostant", "--type", "A2",
             "--weight", rng.choice(["1,0", "0,1"])),
        _cli("verify-kostant", "--type", "A2",
             "--weight", rng.choice(["2,0", "0,2"])),
        _cli("verify-kostant", "--type", "A1", "--lambda-max", "5"),
        _cli("verify-kostant", "--type", "A1", "--weight", "4"),
        _cli("verify-kostant", "--type", "A1xA1", "--weight", _w((a, b))),
        _cli("verify-kostant", "--type", "A1xA1", "--lambda-max", "1"),
        _cli("verify-kostant", "--type", "A1xT1",
             "--weight", _w((3, t1))),
        _cli("verify-kostant", "--type", "A1xT2",
             "--weight", _w((2,) + t2)),
    ]


def _relative(rng):
    sign = rng.choice([1, -1])
    return [
        _cli("verify-relative", "--pair", "A1:T", "--weight", "7"),
        _cli("verify-relative", "--pair", "A1:T", "--weight", "6"),
        _cli("verify-relative", "--pair", "A1:T", "--lambda-max", "5"),
        _cli("verify-relative", "--pair", "A2:u2", "--lambda-max", "1"),
        # u2 is not stable under the diagram flip: 2,0 and 0,2 differ in cost
        _cli("verify-relative", "--pair", "A2:u2", "--weight", "2,0"),
        _cli("verify-relative", "--pair", "A2:T", "--weight", "1,1"),
        _cli("verify-relative", "--pair", "A2:T",
             "--weight", rng.choice(["1,0", "0,1"])),
        _cli("verify-relative", "--pair", "A2:T",
             "--weight", rng.choice(["2,0", "0,2"])),
        _cli("verify-relative", "--pair", "A2:full",
             "--weight", rng.choice(["2,1", "1,2"])),
        [ORACLE, "--pair", "A1:T", "--weight", str(sign * 5)],
        [ORACLE, "--pair", "A1:T", "--weight", str(-sign * 3)],
        [ORACLE, "--pair", "A2:T",
         "--weight", rng.choice(["1,1", "2,-1", "-1,2"])],
        [ORACLE, "--pair", "A2:u2", "--weight", "2,1"],
    ]


def _halfspaces(rows):
    return {"halfspaces": [{"normal": list(n), "offset": str(o)}
                           for n, o in rows]}


def toric_models(rng):
    """name -> (halfspace document as a user writes it, circle direction,
    a regular integral level, width of the moment image along the
    direction) for a CP1, a CP2 and a Hirzebruch model."""
    k1, k2, kh = 6, 4, 5
    models = {
        "cp1": (_halfspaces([((1,), 0), ((-1,), k1)]),
                "1", rng.randint(1, k1 - 1), k1),
        "cp2": (_halfspaces([((1, 0), 0), ((0, 1), 0), ((-1, -1), k2)]),
                "1,2", rng.choice([c for c in range(1, 2 * k2) if c != k2]),
                2 * k2),
        "hirzebruch": (_halfspaces([((1, 0), 0), ((0, 1), 0),
                                    ((0, -1), 2), ((-1, -1), kh)]),
                       "1,0", rng.choice([c for c in range(1, kh)
                                          if c != kh - 2]), kh),
    }
    return models


def _characters(rng):
    models = toric_models(rng)
    files = {"models/%s.json" % name: json.dumps(doc, sort_keys=True)
             for name, (doc, _, _, _) in models.items()}
    b, c = rng.choice([((2, 3), (3, 2)), ((3, 2), (2, 3))])
    axes = [0, 1, 2]
    rng.shuffle(axes)
    fiber3 = ";".join(_w(tuple(1 if j == i else 0 for j in range(3)))
                      for i in axes)
    alpha3 = _w(tuple(axes.index(j) + 1 for j in range(3)))
    reqs = [
        _cli("char", "--type", "A3", "--weight", "1,1,1"),
        _cli("char", "--type", "A3", "--weight", rng.choice(["2,1,0",
                                                             "0,1,2"])),
        _cli("char", "--type", "A4", "--weight", rng.choice(["1,1,0,1",
                                                             "1,0,1,1"])),
        _cli("char", "--type", "B2", "--weight", _w(b)),
        _cli("char", "--type", "C2", "--weight", _w(c)),
        _cli("char", "--type", "D4", "--weight", rng.choice(
            ["2,1,1,1", "1,1,2,1", "1,1,1,2"])),
        _cli("char", "--type", "D4", "--weight", "3,2,2,2"),
        _cli("tensor", "--type", "A2", *rng.choice(
            [("--lhs", "2,1", "--rhs", "1,2"),
             ("--lhs", "1,2", "--rhs", "2,1")])),
        _cli("tensor", "--type", "B2", *rng.choice(
            [("--lhs", "1,1", "--rhs", "2,1"),
             ("--lhs", "2,1", "--rhs", "1,1")])),
        _cli("restrict", "--pair", "A2:u2", "--weight", "3,2"),
        _cli("restrict", "--pair", "A2:T", "--weight", rng.choice(["2,3",
                                                                   "3,2"])),
        _cli("qr-coadjoint", "--type", "A2", "--weight", "1,1",
             "--mu", rng.choice(["1,1", "2,1", "1,2"])),
        _cli("induct", "--pair", "A2:u2", "--weight", rng.choice(["2,1",
                                                                  "1,2"])),
        _cli("induct", "--pair", "A1:T", "--weight",
             str(rng.choice([5, -5]))),
        _cli("polarize", "--type", "T2", "--fiber", "1,0;0,1;1,1",
             "--alpha", "1,2", "--window", "35"),
        _cli("polarize", "--type", "T3", "--fiber", fiber3,
             "--alpha", alpha3, "--window", "35"),
    ]
    for name, (_, xi, c, _) in sorted(models.items()):
        reqs.append(_cli("qr-toric", "--model", "models/%s.json" % name,
                         "--xi", xi, "--c", str(c)))
    for name in ("cp2", "hirzebruch"):
        _, xi, c, span = models[name]
        reqs.append(_cli("decompose", "--model", "models/%s.json" % name,
                         "--xi", xi, "--c", str(c),
                         "--window", str(span + 5),
                         "--out", "decomposed/%s" % name))
    return reqs, files


def generate(workload, seed):
    """(requests, files) for one workload: argv lists, and the input files
    (relative path -> text) the requests read.  Both cache workloads get
    the same list for the same seed, so warm answers can be compared with
    cold ones request by request."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s/%d" % (workload.split("_")[0], seed))
    files = {}
    if workload == "kostant":
        reqs = _kostant(rng)
    elif workload == "relative":
        reqs = _relative(rng)
    else:
        reqs, files = _characters(rng)
    rng.shuffle(reqs)
    return reqs, files
