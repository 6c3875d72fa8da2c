"""The exit code and stderr line of `verify --net` on each file of the
malformed network corpus, pinned in corpus/expected.json, one file a line.

After a deliberate change to a reader's refusal, rewrite the file with

    PYTHONPATH=src python tests/test_corpus.py

and say in the change why each moved line moved.
"""

import contextlib
import io
import json
from pathlib import Path

from matchnet import cli

CORPUS = Path(__file__).parent / "corpus"
EXPECTED = CORPUS / "expected.json"


def verify_lines() -> dict:
    """Each corpus file's [exit code, stderr] under verify --net."""
    lines = {}
    for path in sorted(CORPUS.glob("*.json")):
        if path == EXPECTED:
            continue
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(["verify", "--net", str(path)])
        lines[path.name] = [code, err.getvalue().rstrip("\n")]
    return lines


def _text(lines: dict) -> str:
    return "{\n" + ",\n".join(f" {json.dumps(name)}: {json.dumps(line)}"
                              for name, line in lines.items()) + "\n}\n"


def test_verify_gives_each_corpus_file_its_pinned_line():
    assert verify_lines() == json.loads(EXPECTED.read_text(encoding="utf-8"))


if __name__ == "__main__":
    EXPECTED.write_text(_text(verify_lines()), encoding="utf-8")
