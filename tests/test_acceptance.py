"""Acceptance gate: one test per headline criterion, exact tolerance.

Run `pytest tests/test_acceptance.py -v` for the one-line-per-criterion
pass/fail listing.  Everything here is exact arithmetic; there are no
tolerances to tune.
"""

import random

from diracforge.characters import (ConeSeries, FormalCharacter,
                                   characterToSeries)
from diracforge.clifford import buildCliffordFrame
from diracforge.dirac import (kernelIndex, spectralCheckRelative,
                              verifyKostantIdentity)
from diracforge.induction import diracInduct, multiplicityTransferCheck
from diracforge.liecore import pairFromLabel, systemFromLabel
from diracforge.polarized import (polarizedExpand, vanishingCheck,
                                  vectorSpaceIndex)
from diracforge.qr import (cp1, cp2, fixedPointCharacter, hirzebruch,
                           kirwanDecomposeCircle, productQRCheck,
                           qrCheckCircle, toricQuantization)
from diracforge.rationals import ZERO, rat


def frame_clifford(rep):
    fr = rep.frame
    hints = tuple((i, i + 1) for i, nm in enumerate(fr.names)
                  if nm[0] == "A")
    return buildCliffordFrame(fr.gram, hints)


def kostant_sweep(label, bound):
    from itertools import product
    from diracforge.reps import buildLieRep
    rs = systemFromLabel(label)
    out = []
    for coords in product(range(bound + 1), repeat=rs.rank):
        rep = buildLieRep(rs, rs.weight(coords))
        out.append(verifyKostantIdentity(rep, frame_clifford(rep)))
    return out


def test_criterion_1_kostant_square_identity():
    for report in kostant_sweep("A1", 3) + kostant_sweep("A2", 1):
        assert report["isScalarPerIsotypic"]
        assert report["scalar"] == report["expected"]


def test_criterion_2_relative_spectral_identity():
    pair = pairFromLabel("A1:T")
    for m in range(13):
        report = spectralCheckRelative(pair, (m,))
        assert report["blocks"] and all(b["match"]
                                        for b in report["blocks"])
    pair = pairFromLabel("A2:u2")
    for a in range(2):
        for b in range(2):
            report = spectralCheckRelative(pair, (a, b))
            assert report["blocks"] and all(blk["match"]
                                            for blk in report["blocks"])


def test_criterion_3_induction_cross_oracle():
    pair = pairFromLabel("A1:T")
    for m in range(-14, 15):
        combinatorial = diracInduct(pair, (rat(m),))
        graded = kernelIndex(pair, {(rat(m),): 1})
        assert dict(combinatorial.entries) == dict(graded.entries)


def test_criterion_4_polarization_suite():
    rng = random.Random(20240918)
    ran = 0
    strict_ran = 0
    for label in ("T1", "T2"):
        sys = systemFromLabel(label)
        zero = sys.zeroWeight()
        for _ in range(30):
            while True:
                alpha = sys.weight([rng.randint(-3, 3)
                                    for _ in range(sys.rank)])
                if any(alpha):
                    break
            weights = []
            for _ in range(rng.randint(1, 3)):
                while True:
                    w = sys.weight([rng.randint(-3, 3)
                                    for _ in range(sys.rank)])
                    if sys.innerProduct(w, alpha) != 0:
                        break
                weights.append(w)
            need = sum((max(sys.innerProduct(w, alpha), ZERO)
                        for w in weights), ZERO)
            window = need + rng.randint(1, 4)
            series = polarizedExpand(sys, weights, alpha, window)

            folded = series
            for w in weights:
                folded = folded.mulOneMinusExp(w)
            unit = ConeSeries(sys, {zero: 1}, alpha, 0, None)
            lo = ZERO if folded.offset is None else -folded.offset
            same, witness = folded.equalOnInterval(unit, lo, folded.window)
            assert same, witness

            check = vanishingCheck(series, alpha, strict=False)
            assert check["polarized"]

            shift = sys.weight([rng.randint(-2, 2)
                                for _ in range(sys.rank)])
            if sys.innerProduct(shift, alpha) > 0:
                shifted = vectorSpaceIndex(sys, weights, alpha, shift,
                                           window)
                strict = vanishingCheck(shifted, alpha, strict=True)
                assert strict["trivialCoefficient"] == 0
                strict_ran += 1
            ran += 1
    assert ran >= 50
    assert strict_ran >= 10


ORACLE_MODELS = (
    [(cp1(k), [(1,), (-1,), (3,)]) for k in range(1, 11)]
    + [(cp2(k), [(1, 2), (-2, 1), (3, 1)]) for k in range(1, 4)]
    + [(hirzebruch(4, 2), [(1, 3), (2, 1), (-1, 1)])]
)


def test_criterion_5_vertex_sum_equals_lattice_count():
    for model, directions in ORACLE_MODELS:
        chi = toricQuantization(model)
        for xi in directions:
            oracle = characterToSeries(chi, xi)
            vals = [oracle.pairing(w) for w in oracle.entries]
            lo, hi = min(vals) - 2, max(vals) + 2
            series = fixedPointCharacter(model, xi, hi)
            same, witness = series.equalOnInterval(oracle, lo, hi)
            assert same, witness


def qr_sweep_cases():
    cases = []
    for k in range(1, 7):
        model = cp1(k)
        cases.extend((model, (1,), c) for c in range(1, k))
    for k in range(1, 4):
        model = cp2(k)
        critical = {0, k, 2 * k}
        cases.extend((model, (1, 2), c) for c in range(1, 2 * k)
                     if c not in critical)
    model = hirzebruch(4, 2)
    cases.extend((model, (1, 0), c) for c in (1, 3))
    return cases


def test_criterion_6_localization_sum():
    for model, xi, c in qr_sweep_cases():
        vals = [model.system.innerProduct(v.point, model.system.weight(xi))
                for v in model.vertices]
        window = max(vals) - min(vals) + 4
        comps = kirwanDecomposeCircle(model, xi, c, window)
        total = {}
        for comp in comps:
            for w, m in comp.localSeries.entries.items():
                total[w] = total.get(w, 0) + m
        total = {w: m for w, m in total.items() if m}
        assert total == dict(toricQuantization(model).entries)


def test_criterion_7_qr_zero():
    cases = qr_sweep_cases()
    assert cases
    for model, xi, c in cases:
        report = qrCheckCircle(model, xi, c)
        assert report["match"]
        assert report["mult0"] == report["reduced"]
        for row in report["components"]:
            if not row["containsZero"]:
                assert row["levelCoefficient"] == 0


def test_criterion_8_multiplicity_transfer_and_product_qr():
    pair = pairFromLabel("A1:T")
    for m in range(6):
        chi = FormalCharacter(pair.h, {(rat(m),): 1},
                              basis=FormalCharacter.IRREDUCIBLE)
        report = multiplicityTransferCheck(pair, chi)
        assert report["match"]
    full = pairFromLabel("A2:full")
    chi = FormalCharacter(full.h, {(rat(0), rat(0)): 2},
                          basis=FormalCharacter.IRREDUCIBLE)
    assert multiplicityTransferCheck(full, chi)["match"]

    su2 = systemFromLabel("A1")
    for lam in range(1, 6):
        for mu in range(1, 6):
            report = productQRCheck(su2, (lam,), (mu,))
            assert report["match"]
            assert report["multiplicity"] == (1 if lam == mu else 0)
    su3 = systemFromLabel("A2")
    assert productQRCheck(su3, (1, 1), (1, 1))["multiplicity"] == 1
    assert productQRCheck(su3, (1, 1), (2, 1))["multiplicity"] == 0


def test_criterion_9_affine_constant_audit():
    for label, lams in (("A1", [(0,), (1,), (2,)]),
                        ("A2", [(0, 0), (1, 0)])):
        constants = set()
        for lam in lams:
            from diracforge.reps import buildLieRep
            rs = systemFromLabel(label)
            rep = buildLieRep(rs, rs.weight(lam))
            report = verifyKostantIdentity(rep, frame_clifford(rep))
            assert set(report["readings"]) == {"piOnly", "tensorDiagonal"}
            assert report["affineConstant"] != "failure"
            assert report["readings"]["piOnly"] == report["affineConstant"]
            constants.add(report["affineConstant"])
            # the report names the matching reading(s); under this
            # normalization |rho|^2 and the 1/24 adjoint trace coincide
            assert report["matchedCandidates"] == [
                "rhoNormSquared", "twelfthAdjointTrace"]
        assert len(constants) == 1
