"""Persistent character cache.

One JSON document per (root system, highest weight).  The root-system key
includes a fingerprint of the gram matrix, because subgroup systems reuse
labels like "A1xT1" with an inherited (different) inner product.  Documents
are serialized canonically, so a cache hit is byte-identical to what a
recomputation would have written.
"""

import contextlib
import hashlib
import json
import os

ENV_VAR = "DIRACFORGE_CACHE"

# set only inside ``directory``; never written to os.environ, so it cannot
# outlive the call or reach child processes
_override = None


def cache_dir():
    if _override:
        return _override
    d = os.environ.get(ENV_VAR)
    if d:
        return d
    return os.path.join(os.path.expanduser("~"), ".cache", "diracforge")


@contextlib.contextmanager
def directory(path):
    """Use path (when given) as the cache directory inside the block."""
    global _override
    saved = _override
    if path:
        _override = path
    try:
        yield
    finally:
        _override = saved


def system_key(rs):
    from .rationals import rat_str
    gram = ";".join(",".join(rat_str(x) for x in row) for row in rs.gram)
    fp = hashlib.sha256(gram.encode()).hexdigest()[:10]
    return "%s-%s" % (rs.label, fp)


def _entry_path(rs, lam):
    from .rationals import rat_str
    name = "w" + "_".join(rat_str(c).replace("/", "over").replace("-", "m")
                          for c in lam)
    return os.path.join(cache_dir(), system_key(rs), name + ".json")


def dumps_canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def load(rs, lam):
    path = _entry_path(rs, lam)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def store(rs, lam, doc):
    path = _entry_path(rs, lam)
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp.%d" % os.getpid()
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(doc))
        os.replace(tmp, path)
    except OSError:
        pass  # a read-only cache directory must not break computation


def stats():
    root = cache_dir()
    entries = 0
    size = 0
    if os.path.isdir(root):
        for dirpath, _, files in os.walk(root):
            for f in files:
                if f.endswith(".json"):
                    entries += 1
                    size += os.path.getsize(os.path.join(dirpath, f))
    return {"directory": root, "entries": entries, "bytes": size}


def clear():
    root = cache_dir()
    removed = 0
    if os.path.isdir(root):
        for dirpath, _, files in os.walk(root, topdown=False):
            for f in files:
                if f.endswith(".json") or ".tmp." in f:
                    os.remove(os.path.join(dirpath, f))
                    removed += 1
            try:
                os.rmdir(dirpath)
            except OSError:
                pass
    return {"directory": root, "removed": removed}
