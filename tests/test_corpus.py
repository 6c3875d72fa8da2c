"""The exit code and stderr line of `verify --net` on each file of the
malformed network corpus, and of `route --graph` on each file of the
malformed graph corpus (keyed graphs/<name>), pinned in
corpus/expected.json, one file a line.

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


def _line(argv: list) -> list:
    """[exit code, stderr] of the CLI on argv."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [code, err.getvalue().rstrip("\n")]


def corpus_lines() -> dict:
    """Each network corpus file's line under verify --net, then each graph
    corpus file's under route --graph."""
    lines = {path.name: _line(["verify", "--net", str(path)])
             for path in sorted(CORPUS.glob("*.json")) if path != EXPECTED}
    for path in sorted((CORPUS / "graphs").glob("*.json")):
        lines[f"graphs/{path.name}"] = _line(["route", "--graph", str(path)])
    return lines


def _text(lines: dict) -> str:
    return "{\n" + ",\n".join(f" {json.dumps(name)}: {json.dumps(line)}"
                              for name, line in lines.items()) + "\n}\n"


def test_each_corpus_file_gets_its_pinned_line():
    assert corpus_lines() == json.loads(EXPECTED.read_text(encoding="utf-8"))


if __name__ == "__main__":
    EXPECTED.write_text(_text(corpus_lines()), encoding="utf-8")
