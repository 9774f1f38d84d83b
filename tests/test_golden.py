"""The committed corpus of CLI requests in tests/golden.

Every request of requests.txt, replayed in process through ``cli.main``
by record.py, must give the exit code and the digests recorded in
digests.json.  A change that alters an answer on purpose regenerates the
file (``python tests/golden/record.py``) and names each changed argv.
"""

import importlib.util
import json
import pathlib

from diracforge.cli import SUBCOMMANDS

RECORD = pathlib.Path(__file__).parent / "golden" / "record.py"


def load_record():
    spec = importlib.util.spec_from_file_location("golden_record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_covers_every_subcommand():
    record = load_record()
    assert {argv[0] for argv in record.requests()} >= set(SUBCOMMANDS)


def test_corpus_replays_to_its_digests():
    record = load_record()
    want = json.loads(record.DIGESTS.read_text(encoding="utf-8"))
    got = record.replay(record.requests())
    assert [r["argv"] for r in got] == [r["argv"] for r in want]
    assert [" ".join(g["argv"]) for g, w in zip(got, want) if g != w] == []
