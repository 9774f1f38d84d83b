"""Per-layer spans recorded from outside the program.

``Recorder.install`` wraps public names of ``diracforge`` modules.  A
module-level function is replaced at every place it is bound in a
``diracforge.*`` module, found by object identity, so a ``from .x import
f`` copy is wrapped too; a method is replaced on its class.  Spans nest:
a span's self time is its duration minus the durations of the spans it
encloses, and its busy time counts only the outermost call of a
recursion.  A name that no longer exists is reported as absent (``None``)
instead of stopping the run.

Recording happens in the request child; ``snapshot`` is what the child
sends back, and ``merge``/``metrics`` run in the parent.
"""

import functools
import importlib
import json
import sys
from time import perf_counter

# (span, module, attribute); ``Class.method`` wraps a method on its class.
SPANS = (
    ("exactmat.add", "diracforge.exactmat", "ExactMatrix.__add__"),
    ("exactmat.scale", "diracforge.exactmat", "ExactMatrix.scale"),
    ("exactmat.kron", "diracforge.exactmat", "ExactMatrix.kron"),
    ("exactmat.matmul", "diracforge.exactmat", "ExactMatrix._matmul"),
    ("exactmat.eq", "diracforge.exactmat", "ExactMatrix.__eq__"),
    ("exactmat.rref", "diracforge.exactmat", "ExactMatrix.rref"),
    ("exactmat.nullspace", "diracforge.exactmat", "ExactMatrix.nullspace"),
    ("matops.mul_real", "diracforge.matops", "mul_real"),
    ("matops.mul_cplx", "diracforge.matops", "mul_cplx"),
    ("matops.rref_cplx", "diracforge.matops", "rref_cplx"),
    ("dirac.verifyKostantIdentity", "diracforge.dirac",
     "verifyKostantIdentity"),
    ("dirac.cubicDirac", "diracforge.dirac", "cubicDirac"),
    ("dirac.piCasimir", "diracforge.dirac", "piCasimir"),
    ("dirac.square", "diracforge.dirac", "DiracOperator.square"),
    ("dirac.scalar_of", "diracforge.dirac", "_scalar_of"),
    ("dirac.relativeCubicDirac", "diracforge.dirac", "relativeCubicDirac"),
    ("dirac.spectralCheckRelative", "diracforge.dirac",
     "spectralCheckRelative"),
    ("dirac.kernelIndex", "diracforge.dirac", "kernelIndex"),
    ("clifford.buildCliffordFrame", "diracforge.clifford",
     "buildCliffordFrame"),
    ("clifford.spinRepresentation", "diracforge.clifford",
     "spinRepresentation"),
    ("clifford.splitCliffordForPair", "diracforge.clifford",
     "splitCliffordForPair"),
    ("reps.buildLieRep", "diracforge.reps", "buildLieRep"),
    ("characters.irreducibleCharacter", "diracforge.characters",
     "irreducibleCharacter"),
    ("characters.decomposeCharacter", "diracforge.characters",
     "decomposeCharacter"),
    ("characters.tensorDecompose", "diracforge.characters",
     "tensorDecompose"),
    ("characters.restrictCharacter", "diracforge.characters",
     "restrictCharacter"),
    ("cache.load", "diracforge.cache", "load"),
    ("cache.store", "diracforge.cache", "store"),
    ("polarized.polarizedExpand", "diracforge.polarized", "polarizedExpand"),
    ("induction.diracInduct", "diracforge.induction", "diracInduct"),
    ("qr.ToricModel", "diracforge.qr", "ToricModel.__init__"),
    ("qr.qrCheckCircle", "diracforge.qr", "qrCheckCircle"),
    ("qr.kirwanDecomposeCircle", "diracforge.qr", "kirwanDecomposeCircle"),
    ("qr.coadjointQuantization", "diracforge.qr", "coadjointQuantization"),
    ("structure.buildFrame", "diracforge.structure", "buildFrame"),
    ("cli.main", "diracforge.cli", "main"),
)

# Spans that call no other wrapped name; their busy time is their self time.
LEAVES = frozenset({
    "exactmat.add", "exactmat.scale", "exactmat.kron", "matops.mul_real",
    "matops.mul_cplx", "matops.rref_cplx", "dirac.scalar_of", "cache.load",
    "cache.store", "polarized.polarizedExpand", "induction.diracInduct",
})

MODULES = tuple(dict.fromkeys(name.split(".")[0] for name, _, _ in SPANS))

_DENSITY_SPANS = ("exactmat.add", "exactmat.scale", "exactmat.kron",
                  "exactmat.matmul", "exactmat.rref", "exactmat.nullspace")


def metric_units():
    """Every per-layer metric name with its unit, in output order."""
    out = {}
    for name, _, _ in SPANS:
        out[name + ".calls"] = "count"
        out[name + ".self_s"] = "s"
        if name not in LEAVES:
            out[name + ".busy_s"] = "s"
    for mod in MODULES:
        out[mod + ".errors"] = "count"
    out.update({
        "exactmat.result_density": "ratio",
        "dirac.operator_max_dim": "count",
        "reps.max_dim": "count",
        "cache.hits": "count",
        "cache.misses": "count",
        "cache.hit_ratio": "ratio",
        "cache.bytes": "bytes",
        "trace.overhead_ratio": "ratio",
    })
    return out


def _entry_counts(mat):
    """(non-zero entries, entries) of a matrix result."""
    if isinstance(mat, tuple):  # rref returns (matrix, pivots)
        mat = mat[0]
    n, m = mat.nrows, mat.ncols
    re, im = getattr(mat, "re", None), getattr(mat, "im", None)
    if isinstance(re, list) and len(re) == n * m:
        if im is None:
            return sum(1 for x in re if x), n * m
        return sum(1 for a, b in zip(re, im) if a or b), n * m
    nnz = 0
    for i in range(n):
        for j in range(m):
            z = mat.get(i, j)
            if z[0] or z[1]:
                nnz += 1
    return nnz, n * m


def _doc_bytes(doc):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return len(text.encode("utf-8"))


class Recorder:
    """Span statistics of one process plus the per-layer counters."""

    def __init__(self):
        self.absent = set()
        self.reset()

    def reset(self):
        self.stats = {name: [0, 0.0, 0.0] for name, _, _ in SPANS}
        self.errors = {mod: 0 for mod in MODULES}
        # hook_s: time spent in the counter hooks, inside the enclosing
        # span but outside every span's self time
        self.counters = {"nnz": 0, "entries": 0, "operator_max_dim": 0,
                         "rep_max_dim": 0, "hits": 0, "misses": 0,
                         "bytes": 0, "hook_s": 0.0}
        self.broken = set()  # spans whose counter hook no longer fits
        self._stack = []
        self._depth = {}
        self._last_error = {}

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every name in SPANS that exists; remember the rest."""
        for name, modname, attr in SPANS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent.add(name)
                continue
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                fn = None if owner is None else vars(owner).get(member)
                if fn is None:
                    self.absent.add(name)
                    continue
                setattr(owner, member, self._wrap(name, fn))
                continue
            fn = getattr(module, member, None)
            if fn is None:
                self.absent.add(name)
                continue
            wrapped = self._wrap(name, fn)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("diracforge"):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapped)

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        module = name.split(".")[0]
        rec = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            rec._stack.append(0.0)
            depth = rec._depth.get(name, 0)
            rec._depth[name] = depth + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if rec._last_error.get(module) is not exc:
                    rec._last_error[module] = exc
                    rec.errors[module] += 1
                raise
            finally:
                dt = perf_counter() - t0
                rec._depth[name] = depth
                inner = rec._stack.pop()
                st = rec.stats[name]
                st[0] += 1
                st[1] += dt - inner
                if depth == 0:
                    st[2] += dt
                if rec._stack:
                    rec._stack[-1] += dt
            if hook is not None:
                # counters are tracer work: keep them out of the caller's
                # self time
                h0 = perf_counter()
                try:
                    hook(rec.counters, args, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    rec.broken.add(name)
                spent = perf_counter() - h0
                rec.counters["hook_s"] += spent
                if rec._stack:
                    rec._stack[-1] += spent
            return result

        return span

    # -- transport --------------------------------------------------------

    def snapshot(self):
        return {"stats": self.stats, "errors": self.errors,
                "counters": self.counters, "broken": sorted(self.broken)}

    def merge(self, snap):
        for name, (calls, self_s, busy) in snap["stats"].items():
            st = self.stats[name]
            st[0] += calls
            st[1] += self_s
            st[2] += busy
        for mod, n in snap["errors"].items():
            self.errors[mod] += n
        self.broken.update(snap["broken"])
        for key, val in snap["counters"].items():
            if key.endswith("max_dim"):
                self.counters[key] = max(self.counters[key], val)
            else:
                self.counters[key] += val

    def metrics(self, passes):
        """Per-layer values for one pass of the request list."""
        out = {}
        for name, _, _ in SPANS:
            calls, self_s, busy = self.stats[name]
            gone = name in self.absent
            out[name + ".calls"] = None if gone else calls / passes
            out[name + ".self_s"] = None if gone else self_s / passes
            if name not in LEAVES:
                out[name + ".busy_s"] = None if gone else busy / passes
        for mod in MODULES:
            gone = all(n in self.absent for n, _, _ in SPANS
                       if n.split(".")[0] == mod)
            out[mod + ".errors"] = None if gone else self.errors[mod] / passes
        c = self.counters

        def present(feeds, value):
            """None when a span feeding the counter is gone or its hook
            failed: a counter must not read 0 because it went blind."""
            lost = self.absent | self.broken
            return None if any(f in lost for f in feeds) else value

        loads = c["hits"] + c["misses"]
        cache = ("cache.load", "cache.store")
        out["exactmat.result_density"] = present(
            _DENSITY_SPANS, c["nnz"] / c["entries"] if c["entries"] else 0.0)
        out["dirac.operator_max_dim"] = present(
            ("dirac.cubicDirac", "dirac.relativeCubicDirac"),
            c["operator_max_dim"])
        out["reps.max_dim"] = present(("reps.buildLieRep",), c["rep_max_dim"])
        out["cache.hits"] = present(cache, c["hits"] / passes)
        out["cache.misses"] = present(cache, c["misses"] / passes)
        out["cache.hit_ratio"] = present(cache, c["hits"] / loads if loads
                                         else 0.0)
        out["cache.bytes"] = present(cache, c["bytes"] / passes)
        return out


def _density(counters, args, result):
    if not hasattr(result, "nrows") and not isinstance(result, tuple):
        return
    nnz, entries = _entry_counts(result)
    counters["nnz"] += nnz
    counters["entries"] += entries


def _operator(counters, args, result):
    counters["operator_max_dim"] = max(counters["operator_max_dim"],
                                       result.matrix.nrows)


def _rep(counters, args, result):
    counters["rep_max_dim"] = max(counters["rep_max_dim"], result.dimension)


def _load(counters, args, result):
    if result is None:
        counters["misses"] += 1
    else:
        counters["hits"] += 1
        counters["bytes"] += _doc_bytes(result)


def _store(counters, args, result):
    counters["bytes"] += _doc_bytes(args[2])


_HOOKS = dict({name: _density for name in _DENSITY_SPANS},
              **{"dirac.cubicDirac": _operator,
                 "dirac.relativeCubicDirac": _operator,
                 "reps.buildLieRep": _rep,
                 "cache.load": _load,
                 "cache.store": _store})
