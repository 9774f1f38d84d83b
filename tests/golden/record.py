"""Replay the CLI requests of requests.txt and record what each one does.

Each non-blank line of requests.txt that does not start with "#" is one
argv, split with shell quoting.  The requests run in file order, in
process through ``diracforge.cli.main``, in one temporary working
directory that starts as a copy of ``inputs/``, so every path in an argv
is relative to it and a later request may read a file an earlier one
wrote.  The character cache is ``cache`` under that directory, emptied
before each request; a request that passes ``--cache-dir`` keeps its own.

A record holds the exit code and the SHA-256 of stdout, of stderr and of
each file the request created or changed under the working directory.
An argv that argparse refuses or answers with help raises SystemExit
inside ``main``; for those only the exit code is recorded, because
argparse's wording differs between Python versions.

Usage, from the repository root with the package importable:

    python tests/golden/record.py           rewrite tests/golden/digests.json
    python tests/golden/record.py --check   list each argv whose record
                                            differs, with the first line
                                            it prints now; exit 1 if any
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import shlex
import shutil
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
REQUESTS = HERE / "requests.txt"
DIGESTS = HERE / "digests.json"
INPUTS = HERE / "inputs"
CACHE = "cache"


def requests(path=REQUESTS):
    """The argv of each request line of path."""
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            out.append(shlex.split(line))
    return out


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _files(root):
    """{relative path: SHA-256} of every file under root."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root).replace(os.sep, "/")] = \
                    _sha(fh.read())
    return out


def _run(main, argv):
    """(exit code, stdout, stderr) of main(argv); the texts are None when
    argparse exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            return exc.code, None, None
    return code, out.getvalue(), err.getvalue()


def replay(argvs, outputs=None):
    """One record per argv, made as the module docstring says.  With
    outputs, a list, the (stdout, stderr) texts are appended to it."""
    from diracforge import cache
    from diracforge.cli import main

    records = []
    saved_cwd = os.getcwd()
    saved_env = os.environ.get(cache.ENV_VAR)
    with tempfile.TemporaryDirectory() as tmp:
        work = os.path.join(tmp, "work")
        shutil.copytree(INPUTS, work)
        os.chdir(work)
        os.environ[cache.ENV_VAR] = CACHE
        try:
            for argv in argvs:
                shutil.rmtree(CACHE, ignore_errors=True)
                before = _files(".")
                code, out, err = _run(main, argv)
                record = {"argv": argv, "exit": code}
                if out is not None:
                    written = {path: sha for path, sha in _files(".").items()
                               if before.get(path) != sha}
                    record.update(stdout=_sha(out.encode()),
                                  stderr=_sha(err.encode()), files=written)
                records.append(record)
                if outputs is not None:
                    outputs.append((out, err))
        finally:
            os.chdir(saved_cwd)
            if saved_env is None:
                os.environ.pop(cache.ENV_VAR, None)
            else:
                os.environ[cache.ENV_VAR] = saved_env
    return records


def _first_line(text):
    return text.splitlines()[0] if text else ""


def main(args):
    argvs = requests()
    if args == ["--check"]:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
        outputs = []
        differ = 0
        for i, record in enumerate(replay(argvs, outputs)):
            if i >= len(recorded) or recorded[i] != record:
                out, err = outputs[i]
                differ += 1
                print("%s\n  exit %s: %s" % (
                    shlex.join(record["argv"]), record["exit"],
                    _first_line(out) or _first_line(err)))
        return 1 if differ else 0
    if args:
        print("usage: record.py [--check]", file=sys.stderr)
        return 2
    records = replay(argvs)
    DIGESTS.write_text("[\n%s\n]\n" % ",\n".join(
        json.dumps(r, sort_keys=True) for r in records), encoding="utf-8")
    print("%d requests recorded in %s" % (len(records), DIGESTS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
