"""Command-line front end.

Every subcommand prints a deterministic report (json or text, never a
timestamp) and exits 0 when all assertions pass, 1 when a verification
fails (the report carries the witness), 2 on usage or parse errors, and 3
when an internal consistency check fails.
JSON reports embed the normalization tag, the Clifford sign, and the
per-factor polarization rule, so a saved report is interpretable on its
own.  Rationals are serialized as "p/q" strings; no floating point
appears in any payload.
"""

import json
import os
import sys
from itertools import product as cartesian, repeat
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import cache
from .characters import (ConeSeries, FormalCharacter, _irreducible_weights,
                         _keyed, restrictCharacter, tensorDecompose)
from .clifford import frameClifford
from .dirac import spectralCheckRelative, verifyKostantIdentity
from .errors import (BadEntryLine, DiracforgeError, InternalError,
                     SpectralMismatch, VerificationError)
from .induction import diracInduct, inductCharacter
from .liecore import (pairFromLabel, systemFromLabel, weightFromStrings,
                      weightString)
from .polarized import vanishingCheck, vectorSpaceIndex
from .qr import (CoadjointModel, ToricModel, coadjointQuantization,
                 kirwanDecomposeCircle, productQRCheck, qrCheckCircle)
from .rationals import rat_from_str, rat_str
from .reps import buildLieRep

NORMALIZATION = "long-root-2"
CLIFFORD_SIGN = "minus"
POLARIZATION_RULE = ("<w,alpha> < 0: sum_{k>=0} e^{-k w}; "
                     "<w,alpha> > 0: -sum_{k>=1} e^{k w}")


# ------------------------------------------------------------- parsing

def _parse_weight(text):
    parts = [p.strip() for p in text.split(",")]
    try:
        return weightFromStrings(parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise DiracforgeError("bad weight %r: %s" % (text, exc))


def _parse_weight_list(text):
    return [_parse_weight(chunk) for chunk in text.split(";")
            if chunk.strip()]


def _parse_rat(text, field):
    try:
        return rat_from_str(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DiracforgeError("bad %s %r: %s" % (field, text, exc))


def _read_lines(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise DiracforgeError(str(exc))


def _write_file(path, write):
    """write(fh) on path opened for text; an OSError is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise DiracforgeError(str(exc))


def _write_text(path, lines):
    _write_file(path, lambda fh: fh.write("\n".join(lines) + "\n"))


def loadCharacterFile(path):
    """Character or cone-series file; parse errors name file and line,
    blank lines counted."""
    lines = _read_lines(path)
    head = next((no for no, ln in enumerate(lines) if ln.strip()), None)
    if head is None:
        raise DiracforgeError("%s: empty character file" % path)
    cls = ConeSeries if "cone-series" in lines[head] else FormalCharacter
    try:
        return cls.from_lines(lines[head:], first=head + 1)
    except BadEntryLine as exc:
        raise DiracforgeError("%s:%s" % (path, exc))
    except (DiracforgeError, KeyError, ValueError) as exc:
        raise DiracforgeError("%s:%d: bad header field: %s"
                              % (path, head + 1, exc))


def loadToricModel(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DiracforgeError(str(exc))
    except json.JSONDecodeError as exc:
        raise DiracforgeError("%s:%d: %s" % (path, exc.lineno, exc.msg))
    try:
        return ToricModel.fromDict(data, label=os.path.basename(path))
    except DiracforgeError as exc:
        raise DiracforgeError("%s: %s" % (path, exc))


class RunConfig:
    """Validated run parameters shared by every subcommand."""

    def __init__(self, args):
        self.subcommand = args.command
        self.format = args.format
        self.seed = args.seed
        self.normalization = args.normalization
        if self.normalization != NORMALIZATION:
            raise DiracforgeError(
                "normalization %r is not available; this release implements"
                " %r only" % (self.normalization, NORMALIZATION))
        self.window = getattr(args, "window", None)
        if self.window is not None:
            self.window = _parse_rat(self.window, "window")
            if self.window <= 0:
                raise DiracforgeError("window must be positive")
        self.cache_dir = args.cache_dir


# ------------------------------------------------------------ reporting

def _flat(val):
    if isinstance(val, list):
        return "[" + ", ".join(_flat(v) for v in val) + "]"
    if isinstance(val, dict):
        return "{" + ", ".join("%s=%s" % (k, _flat(v))
                               for k, v in val.items()) + "}"
    return str(val)


def _generic_text(payload):
    lines = []
    for key, val in payload.items():
        if isinstance(val, list) and val and isinstance(val[0], dict):
            lines.append("%s:" % key)
            for item in val:
                lines.append("  " + "  ".join(
                    "%s=%s" % (k, _flat(v)) for k, v in item.items()))
        elif isinstance(val, dict):
            lines.append("%s:" % key)
            for k, v in val.items():
                lines.append("  %s: %s" % (k, _flat(v)))
        else:
            lines.append("%s: %s" % (key, _flat(val)))
    return lines


_CONTAINERS = (dict, list, tuple)


def _dump_json(write, val, nl):
    """Write the pieces of json.dumps(val, sort_keys=True, indent=2), val
    being on a line that starts with nl.  json runs its C encoder only
    without indent, so a container of scalars is one C call with the
    newline and indent in its item separator; Python walks only the
    containers that hold containers."""
    if not isinstance(val, _CONTAINERS) or not val:
        write(json.dumps(val))
        return
    inner = nl + "  "
    is_dict = isinstance(val, dict)
    opening, closing = "{}" if is_dict else "[]"
    if not any(map(isinstance, val.values() if is_dict else val,
                   repeat(_CONTAINERS))):
        flat = json.dumps(val, sort_keys=True, separators=("," + inner, ": "))
        write(opening + inner)
        write(flat[1:-1])
    else:
        write(opening)
        sep = inner
        for key in sorted(val) if is_dict else range(len(val)):
            write(sep + encode_basestring_ascii(key) + ": " if is_dict
                  else sep)
            _dump_json(write, val[key], inner)
            sep = "," + inner
    write(nl + closing)


def _write_json(stream, doc):
    """Write json.dumps(doc, sort_keys=True, indent=2) and a newline."""
    _dump_json(stream.write, doc, "\n")
    stream.write("\n")


def _emit(config, payload, text_lines=None):
    if config.format == "json":
        doc = {"subcommand": config.subcommand,
               "normalization": NORMALIZATION,
               "cliffordSign": CLIFFORD_SIGN,
               "polarizationRule": POLARIZATION_RULE}
        if config.seed is not None:
            doc["seed"] = config.seed
        doc.update(payload)
        _write_json(sys.stdout, doc)
    else:
        if text_lines is None:
            text_lines = _generic_text(payload)
        if text_lines:
            print("\n".join(text_lines))


# ----------------------------------------------------------- subcommands

def cmd_root_system(config, args):
    rs = systemFromLabel(args.type)
    payload = {
        "label": rs.label,
        "rank": rs.rank,
        "simpleRoots": [weightString(r) for r in rs.simpleRoots],
        "positiveRootCount": len(rs.positiveRoots),
        "positiveRoots": [weightString(r) for r in rs.positiveRoots],
        "rho": weightString(rs.rho),
        "weylGroupOrder": rs.weylGroupOrder(),
        "groupDimension": rs.rank + 2 * len(rs.positiveRoots),
    }
    return payload, None


def cmd_orbit(config, args):
    rs = systemFromLabel(args.type)
    lam = rs.weight(_parse_weight(args.weight))
    orbit = rs.weylOrbit(lam)
    payload = {"label": rs.label, "weight": weightString(lam),
               "orbitSize": len(orbit),
               "orbit": [weightString(w) for w in orbit]}
    return payload, None


def cmd_char(config, args):
    rs = systemFromLabel(args.type)
    lam = rs.weight(_parse_weight(args.weight))
    # entries are the cache file's keys, formatted once by the kernel
    weights, entries = _irreducible_weights(rs, lam)
    payload = {"label": rs.label, "weight": weightString(lam),
               "dimension": sum(entries.values()), "entries": entries}
    if config.format == "json" and not args.out:
        return payload, None
    # the text report and the file list the weights in weight order
    lines = ["%s %s" % (rs.label, FormalCharacter.WEIGHT)]
    lines.extend("%s %d" % kv for kv in _keyed(weights, rs.rank))
    if args.out:
        _write_text(args.out, lines)
        payload["out"] = args.out
    return payload, lines


def cmd_tensor(config, args):
    rs = systemFromLabel(args.type)
    lam = rs.weight(_parse_weight(args.lhs))
    mu = rs.weight(_parse_weight(args.rhs))
    dec = tensorDecompose(rs, lam, mu)
    payload = {"label": rs.label, "lhs": weightString(lam),
               "rhs": weightString(mu),
               "summands": {weightString(w): dec[w] for w in sorted(dec)}}
    text = ["%d V(%s)" % (dec[w], weightString(w)) for w in sorted(dec)]
    return payload, text


def cmd_restrict(config, args):
    pair = pairFromLabel(args.pair)
    lam = pair.g.weight(_parse_weight(args.weight))
    dec = restrictCharacter(pair, lam)
    chi = FormalCharacter(pair.h, dec, basis=FormalCharacter.IRREDUCIBLE)
    lines = chi.to_lines()
    payload = {"pair": pair.label, "weight": weightString(lam),
               "entries": {weightString(w): dec[w] for w in sorted(dec)}}
    if args.out:
        _write_text(args.out, lines)
        payload["out"] = args.out
    return payload, lines


def cmd_induct(config, args):
    pair = pairFromLabel(args.pair)
    if args.weight is not None:
        lam = pair.h.weight(_parse_weight(args.weight))
        out = diracInduct(pair, lam)
    else:
        out = inductCharacter(pair, loadCharacterFile(args.input))
    keyed = out.keyed()
    lines = out.to_lines(keyed)
    if args.out:
        _write_text(args.out, lines)
    if isinstance(out, ConeSeries):
        payload = {"pair": pair.label,
                   "entries": dict(keyed),
                   "polarizer": weightString(out.polarizer),
                   "window": "none" if out.window is None
                             else rat_str(out.window)}
        return payload, lines
    entries = dict(keyed)
    payload = {"pair": pair.label, "entries": entries}
    if args.out:
        payload["out"] = args.out
    if not entries:
        return payload, ["0"]
    text = ["%+d V(%s)" % (m, w) for w, m in sorted(entries.items())]
    return payload, text


def _dominant_box(rs, bound):
    if bound < 0:
        raise DiracforgeError("sweep bound must be nonnegative")
    return [rs.weight(c) for c in cartesian(range(bound + 1),
                                            repeat=rs.rank)]


def cmd_verify_kostant(config, args):
    rs = systemFromLabel(args.type)
    if args.weight is not None:
        lams = [rs.weight(_parse_weight(args.weight))]
    else:
        lams = _dominant_box(rs, args.lambda_max)
    blocks = []
    scalars = {}
    constants = set()
    affine = None
    for lam in lams:
        rep = buildLieRep(rs, lam)
        one = verifyKostantIdentity(rep, frameClifford(rep.frame))
        if not one["scalarMatches"]:
            raise SpectralMismatch(
                "scalar %s differs from |lambda+rho|^2 = %s at lambda ="
                " (%s)" % (rat_str(one["scalar"]),
                           rat_str(one["expected"]), weightString(lam)))
        blocks.append({"lambda": weightString(lam),
                       "scalar": rat_str(one["scalar"]),
                       "expected": rat_str(one["expected"]),
                       "match": True})
        scalars[weightString(lam)] = rat_str(one["scalar"])
        constants.add(one["affineConstant"])
        affine = {"constant": one["affineConstant"],
                  "readings": one["readings"],
                  "candidates": one["candidates"],
                  "matchedCandidates": one["matchedCandidates"]}
    if len(constants) > 1:
        affine["constant"] = "varies: %s" % ", ".join(sorted(constants))
    payload = {"system": rs.label, "blocks": blocks, "scalars": scalars,
               "affine": affine, "allMatch": True}
    text = ["lambda (%s): scalar %s expected %s ok"
            % (b["lambda"], b["scalar"], b["expected"]) for b in blocks]
    text.append("affine constant: %s (pi-only reading; tensor-diagonal"
                " gives %s)" % (affine["constant"],
                                affine["readings"]["tensorDiagonal"]))
    text.append("matches: %s" % (", ".join(affine["matchedCandidates"])
                                 or "none"))
    return payload, text


def cmd_verify_relative(config, args):
    pair = pairFromLabel(args.pair)
    if args.weight is not None:
        lams = [pair.g.weight(_parse_weight(args.weight))]
    else:
        lams = _dominant_box(pair.g, args.lambda_max)
    runs = []
    text = []
    for lam in lams:
        one = spectralCheckRelative(pair, lam)
        runs.append({
            "lambda": weightString(lam),
            "blocks": [{"mu": weightString(b["mu"]),
                        "multiplicity": b["multiplicity"],
                        "scalar": rat_str(b["scalar"]),
                        "match": b["match"]} for b in one["blocks"]],
            "kernelCandidates": [weightString(m)
                                 for m in one["kernelCandidates"]]})
        text.append("lambda (%s): %d blocks ok, kernel at [%s]"
                    % (weightString(lam), len(one["blocks"]),
                       "; ".join(weightString(m)
                                 for m in one["kernelCandidates"])))
    payload = {"pair": pair.label, "runs": runs, "allMatch": True}
    return payload, text


def cmd_polarize(config, args):
    rs = systemFromLabel(args.type)
    fiber = [rs.weight(w) for w in _parse_weight_list(args.fiber)]
    alpha = rs.weight(_parse_weight(args.alpha))
    shift = (rs.weight(_parse_weight(args.shift)) if args.shift
             else rs.zeroWeight())
    series = vectorSpaceIndex(rs, fiber, alpha, shift, config.window)
    keyed = series.keyed()  # formatted once for the lines and the payload
    lines = series.to_lines(keyed)
    payload = {"system": rs.label, "alpha": weightString(alpha),
               "shift": weightString(shift),
               "window": rat_str(config.window),
               "offset": "none" if series.offset is None
                         else rat_str(series.offset),
               "terms": len(series.entries),
               "entries": dict(keyed)}
    if args.strict:
        payload["vanishing"] = vanishingCheck(series, alpha, strict=True)
    if args.out:
        _write_text(args.out, lines)
        payload["out"] = args.out
    return payload, lines


def _parse_direction(model, text):
    if model.dimension == 0:
        return ()
    if text is None:
        raise DiracforgeError("--xi is required for a positive-dimensional"
                              " model")
    return _parse_weight(text)


def cmd_qr_toric(config, args):
    model = loadToricModel(args.model)
    xi = _parse_direction(model, args.xi)
    c = _parse_rat(args.c, "level")
    report = qrCheckCircle(model, xi, c, window=config.window)
    text = ["mult0 = %d" % report["mult0"],
            "reduced = %d" % report["reduced"],
            "match: %s" % ("yes" if report["match"] else "no")]
    return report, text


def cmd_qr_coadjoint(config, args):
    rs = systemFromLabel(args.type)
    lam = rs.weight(_parse_weight(args.weight))
    out = coadjointQuantization(CoadjointModel(rs, lam))
    payload = {"system": rs.label, "orbit": weightString(lam),
               "quantization": {weightString(w): m
                                for w, m in sorted(out.entries.items())},
               "match": True}
    text = ["Q(O_(%s)) = V(%s)" % (weightString(lam), weightString(lam)),
            "match: yes"]
    if args.mu is not None:
        mu = rs.weight(_parse_weight(args.mu))
        payload["product"] = productQRCheck(rs, lam, mu)
        text.append("product multiplicity = %d (expected %d)"
                    % (payload["product"]["multiplicity"],
                       payload["product"]["expected"]))
    return payload, text


def cmd_decompose(config, args):
    model = loadToricModel(args.model)
    xi = _parse_direction(model, args.xi)
    c = _parse_rat(args.c, "level")
    comps = kirwanDecomposeCircle(model, xi, c, config.window)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise DiracforgeError(str(exc))
    rows = []
    for i, comp in enumerate(comps):
        fname = "component-%02d.series" % i
        _write_text(os.path.join(args.out, fname),
                    comp.localSeries.to_lines())
        rows.append({"alpha": weightString(comp.alpha),
                     "containsZero": comp.containsZero,
                     "file": fname,
                     "terms": len(comp.localSeries.entries)})
    payload = {"model": model.label, "xi": weightString(xi), "c": rat_str(c),
               "window": rat_str(config.window),
               "directory": args.out, "components": rows}
    _write_file(os.path.join(args.out, "report.json"),
                lambda fh: _write_json(fh, payload))
    text = ["%s alpha=(%s) terms=%d -> %s"
            % ("zero " if r["containsZero"] else "      ",
               r["alpha"], r["terms"], r["file"]) for r in rows]
    return payload, text


def cmd_cache(config, args):
    if args.action == "clear":
        payload = cache.clear()
        payload.update(entriesAfter=cache.stats()["entries"])
    else:
        payload = cache.stats()
    return payload, None


# --------------------------------------------------------------- driver

# An option is (flag, argparse keywords); a tuple of options is a required
# group of which exactly one is given.  Every subcommand takes these first.
_SHARED = (
    ("--format", dict(choices=("json", "text"), default="text",
                      help="report format")),
    ("--seed", dict(type=int, default=None,
                    help="seed recorded for randomized sweeps")),
    ("--normalization", dict(default=NORMALIZATION)),
    ("--cache-dir", dict(default=None,
                         help="override the character cache directory")),
)
_REQ = dict(required=True)
_OPT = dict(default=None)

# name -> (handler, help, options), in the order help lists them
SUBCOMMANDS = {
    "root-system": (cmd_root_system, "describe a root system",
                    (("--type", _REQ),)),
    "orbit": (cmd_orbit, "Weyl orbit of a weight",
              (("--type", _REQ), ("--weight", _REQ))),
    "char": (cmd_char, "irreducible character (cached)", (
        ("--type", _REQ), ("--weight", _REQ),
        ("--out", dict(default=None, help="write the character file here")))),
    "tensor": (cmd_tensor, "tensor product decomposition",
               (("--type", _REQ), ("--lhs", _REQ), ("--rhs", _REQ))),
    "restrict": (cmd_restrict, "restrict an irreducible to a subgroup", (
        ("--pair", dict(required=True, help="pair label like A2:u2")),
        ("--weight", _REQ), ("--out", _OPT))),
    "induct": (cmd_induct, "Dirac induction from a subgroup", (
        ("--pair", _REQ),
        (("--weight", dict(default=None, help="single dominant H-label")),
         ("--input", dict(default=None,
                          help="character or cone-series file over H"))),
        ("--out", _OPT))),
    "verify-kostant": (
        cmd_verify_kostant, "exact square identity for the cubic operator", (
            ("--type", _REQ),
            (("--weight", _OPT),
             ("--lambda-max", dict(type=int, default=None,
                                   help="sweep all dominant labels with"
                                        " coordinates up to this bound"))))),
    "verify-relative": (
        cmd_verify_relative, "blockwise spectrum of the relative operator", (
            ("--pair", _REQ),
            (("--weight", _OPT), ("--lambda-max", dict(type=int,
                                                       default=None))))),
    "polarize": (cmd_polarize, "polarized index series of a weight list", (
        ("--type", _REQ),
        ("--fiber", dict(required=True, help="semicolon-separated weights")),
        ("--alpha", _REQ), ("--shift", _OPT), ("--window", _REQ),
        ("--strict", dict(action="store_true", default=False,
                          help="assert strict polarization of the result")),
        ("--out", _OPT))),
    "qr-toric": (cmd_qr_toric, "circle [Q,R]=0 on a toric model", (
        ("--model", dict(required=True, help="model JSON file")),
        ("--xi", dict(default=None, help="circle direction")),
        ("--c", dict(required=True, help="reduction level")),
        ("--window", _OPT))),
    "qr-coadjoint": (
        cmd_qr_coadjoint, "coadjoint-orbit quantization and product check", (
            ("--type", _REQ),
            ("--weight", dict(required=True,
                              help="strictly dominant orbit label")),
            ("--mu", dict(default=None, help="second orbit label for the"
                                             " product check")))),
    "decompose": (
        cmd_decompose, "Kirwan decomposition with per-component series files",
        (("--model", _REQ), ("--xi", _OPT), ("--c", _REQ), ("--window", _REQ),
         ("--out", dict(required=True, help="output directory")))),
    "cache": (cmd_cache, "character cache statistics or clearing",
              (("action", dict(choices=("stats", "clear"))),)),
}


def _grouped(options):
    """(group, members) per entry of _SHARED + options; a lone option is
    not a group, and its only member."""
    for opt in _SHARED + options:
        group = isinstance(opt[0], tuple)
        yield group, opt if group else (opt,)


def build_parser(command=None):
    """The argument parser.  With command, one of SUBCOMMANDS, only that
    subcommand is registered, and the subcommand list in its usage lines is
    pinned to all of SUBCOMMANDS, so every text it prints is the full
    parser's.  (The full parser keeps the default metavar: a missing
    command is reported by its dest, "command".)"""
    import argparse  # only argv that _read_canonical declines needs it
    parser = argparse.ArgumentParser(
        prog="diracforge",
        description="Exact-arithmetic equivariant index computations for"
                    " compact groups.")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{%s}" % ",".join(SUBCOMMANDS))
    for name, (func, help, options) in SUBCOMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help)
        for group, members in _grouped(options):
            into = p.add_mutually_exclusive_group(required=True) if group \
                else p
            for flag, kw in members:
                into.add_argument(flag, **kw)
        p.set_defaults(func=func)
    return parser


def _dest(flag):
    return flag.lstrip("-").replace("-", "_")


def _value(kw, text):
    """text as argparse reads the value of an option with keywords kw, or
    None where argparse would not take it: no token, a token it reads as
    an option (one starting with "-" that is not a negative integer), a
    bad int or a bad choice."""
    if text is None or text.startswith("-") and not (
            text[1:].isascii() and text[1:].isdigit()):
        return None
    if "type" in kw:
        try:
            text = kw["type"](text)
        except ValueError:
            return None
    return None if "choices" in kw and text not in kw["choices"] else text


def _read_canonical(argv):
    """build_parser().parse_args(argv), read without argparse when argv
    has the canonical form: the subcommand, its positional, then options
    by their full names, each at most once and followed by its value.
    None for any other argv (help, abbreviations, --name=value, repeats,
    "--", unknown or missing options, bad values): argparse reads those."""
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    func, _, options = SUBCOMMANDS[argv[0]]
    values = {"command": argv[0], "func": func}
    flags = {}
    groups = []
    for group, members in _grouped(options):
        if group:
            groups.append({flag for flag, _ in members})
        for flag, kw in members:
            flags[flag] = kw
            values[_dest(flag)] = kw.get("default")
    # cache's positional is read as if its name preceded its value
    tokens = iter([flag for flag in flags if flag[0] != "-"]
                  + list(argv[1:]))
    given = set()
    for flag in tokens:
        kw = flags.get(flag)
        if kw is None or flag in given:
            return None
        given.add(flag)
        value = True if kw.get("action") == "store_true" \
            else _value(kw, next(tokens, None))
        if value is None:
            return None
        values[_dest(flag)] = value
    if any(kw.get("required") and flag not in given
           for flag, kw in flags.items()) \
            or any(len(group & given) != 1 for group in groups):
        return None
    return SimpleNamespace(**values)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _read_canonical(argv)
    if args is None:
        # a request names its subcommand first; only that one is built
        parser = build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS
                              else None)
        args = parser.parse_args(argv)
    try:
        config = RunConfig(args)
        with cache.directory(config.cache_dir):
            payload, text = args.func(config, args)
    except VerificationError as exc:
        failure = {"error": type(exc).__name__, "witness": str(exc),
                   "normalization": NORMALIZATION,
                   "cliffordSign": CLIFFORD_SIGN}
        if getattr(args, "format", "text") == "json":
            _write_json(sys.stdout, failure)
        else:
            print("FAIL %s: %s" % (type(exc).__name__, exc))
        return 1
    except InternalError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3
    except DiracforgeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    _emit(config, payload, text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
