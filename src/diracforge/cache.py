"""Persistent character cache.

One file per (root system, highest weight lam), two lines of canonical
JSON.  Line 2, the body, holds the weight multiplicities of V_lam; line
1, the header, holds the system key (label and gram fingerprint: subgroup
systems reuse labels like "A1xT1" with another inner product), lam,
``FORMAT`` and the SHA-256 of line 2.  ``load`` answers only when line 1
is the header recomputed from the request and the bytes after it, so a
missing, foreign or older-format file and any changed byte are misses,
and the recomputation overwrites the file.  The digest catches accidental
damage, not an edit that recomputes it.  ``load`` and ``store`` answer
with the body's text, not a parsed dict: ``char`` prints it as it stands
(see ``cli._dump_json``), and only callers that need weights parse it.
"""

import contextlib
import hashlib
import json
import os

from .rationals import rat_str

ENV_VAR = "DIRACFORGE_CACHE"

# version 1 was one JSON document with no header
FORMAT = 2

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
    gram = ";".join(",".join(rat_str(x) for x in row) for row in rs.gram)
    fp = hashlib.sha256(gram.encode()).hexdigest()[:10]
    return "%s-%s" % (rs.label, fp)


def _canonical(val):
    return (json.dumps(val, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def _entry_path(key, lam):
    name = "w" + "_".join(rat_str(c).replace("/", "over").replace("-", "m")
                          for c in lam)
    return os.path.join(cache_dir(), key, name + ".json")


def _header(key, lam, body):
    return _canonical({"format": FORMAT,
                       "lambda": ",".join(map(rat_str, lam)),
                       "sha256": hashlib.sha256(body).hexdigest(),
                       "system": key})


def load(rs, lam):
    """The body stored for (rs, lam), as text without its newline, or None
    unless the file's first line is the header of the rest."""
    key = system_key(rs)
    try:
        with open(_entry_path(key, lam), "rb") as fh:
            head = fh.readline()
            body = fh.read()
    except OSError:
        return None
    if head != _header(key, lam, body):
        return None
    # the digest attests the body store wrote: ASCII JSON and a newline
    return body[:-1].decode("ascii", "replace")


def store(rs, lam, entries):
    """Write entries, a dict of JSON scalars, as the file of (rs, lam),
    and return the body text, as ``load`` would, whether or not the write
    succeeded."""
    key = system_key(rs)
    path = _entry_path(key, lam)
    body = _canonical(entries)
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp.%d" % os.getpid()
        with open(tmp, "wb") as fh:
            fh.write(_header(key, lam, body))
            fh.write(body)
        os.replace(tmp, path)
    except OSError:
        pass  # a read-only cache directory must not break computation
    return body[:-1].decode("ascii")


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
