import json
import re
from pathlib import Path

import pytest

from matchnet import cli
from matchnet.bench import run_suite
from matchnet.errors import ConstructionError, ParameterError
from matchnet.graphs import generate, to_json


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_emits_graph_json(capsys):
    code, out, _ = run(["generate", "--graph", "mesh:3,3"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 9
    assert len(data["edges"]) == 12


def test_generate_to_file_then_build_from_file(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    code, _, _ = run(["generate", "--graph", "path:6",
                      "--out", str(gpath)], capsys)
    assert code == 0
    code, out, _ = run(["build", "--construction", "odd_even",
                        "--graph", str(gpath)], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["stages"]) == 6


@pytest.mark.parametrize("spec", ["path:3", "mesh:3,2", "multigrid:3,1"])
def test_generate_from_a_graph_file_prints_the_spec_bytes(tmp_path, capsys,
                                                          spec):
    gpath = tmp_path / "g.json"
    code, _, _ = run(["generate", "--graph", spec, "--out", str(gpath)], capsys)
    assert code == 0
    from_spec = run(["generate", "--graph", spec], capsys)
    assert from_spec[0] == 0 and from_spec[2] == ""
    assert run(["generate", "--graph", str(gpath)], capsys) == from_spec


def test_generate_refuses_a_mislabelled_graph_file(capsys):
    path = Path(__file__).parent / "corpus" / "graphs" / "label_mismatch.json"
    code, out, err = run(["generate", "--graph", str(path)], capsys)
    assert out == ""
    _one_line_error(code, err, 1)
    assert "family label" in err


def test_build_verify_roundtrip(tmp_path, capsys):
    npath = tmp_path / "net.json"
    code, _, _ = run(["build", "--construction", "odd_even",
                      "--graph", "path:8", "--out", str(npath)], capsys)
    assert code == 0
    code, out, _ = run(["verify", "--net", str(npath)], capsys)
    assert code == 0
    assert "pass" in out.lower()


def test_verify_detects_broken_net(tmp_path, capsys):
    npath = tmp_path / "net.json"
    run(["build", "--construction", "odd_even", "--graph", "path:6",
         "--out", str(npath)], capsys)
    data = json.loads(npath.read_text())
    data["stages"] = data["stages"][:2]  # truncated, no longer sorts
    npath.write_text(json.dumps(data))
    code, out, _ = run(["verify", "--net", str(npath)], capsys)
    assert code == 1
    assert "fail" in out.lower()


def test_verify_cap_refusal_exit_2(tmp_path, capsys):
    npath = tmp_path / "net.json"
    run(["build", "--construction", "odd_even", "--graph", "path:10",
         "--out", str(npath)], capsys)
    code, _, err = run(["verify", "--net", str(npath),
                        "--method", "exhaustive"], capsys)
    assert code == 2
    assert "cap" in err.lower()


def test_cap_override_env_clamped(tmp_path, capsys, monkeypatch):
    npath = tmp_path / "net.json"
    run(["build", "--construction", "batcher", "--graph", "complete:22",
         "--out", str(npath)], capsys)
    # without the override the 0-1 check refuses n = 22
    code, _, _ = run(["verify", "--net", str(npath),
                      "--method", "zero_one"], capsys)
    assert code == 2
    monkeypatch.setenv("MATCHNET_CAP_OVERRIDE", "22")
    code, out, _ = run(["verify", "--net", str(npath),
                        "--method", "zero_one"], capsys)
    assert code == 0
    # values past the hard limit are clamped with a warning
    monkeypatch.setenv("MATCHNET_CAP_OVERRIDE", "40")
    code, _, err = run(["verify", "--net", str(npath),
                        "--method", "zero_one"], capsys)
    assert code == 0
    assert "clamp" in err.lower()
    # a value that is not a positive integer is ignored with a warning
    for raw, text in (("abc", "non-integer"), ("0", "non-positive")):
        monkeypatch.setenv("MATCHNET_CAP_OVERRIDE", raw)
        code, _, err = run(["verify", "--net", str(npath),
                            "--method", "zero_one"], capsys)
        assert code == 2
        assert f"ignoring {text} MATCHNET_CAP_OVERRIDE" in err


def test_route_realizes_order(tmp_path, capsys):
    ppath = tmp_path / "plan.json"
    code, out, _ = run(["route", "--graph", "path:5",
                        "--order", "5,4,3,2,1", "--out", str(ppath)], capsys)
    assert code == 0
    assert "depth=" in out
    data = json.loads(ppath.read_text())
    assert data["plan"] is True
    assert data["order"] == [5, 4, 3, 2, 1]
    assert len(data["stages"]) <= 5


def test_route_rejects_bad_order(capsys):
    code, _, err = run(["route", "--graph", "path:4",
                        "--order", "1,1,2,3"], capsys)
    assert code == 1
    assert err


def test_oracle_st_value(capsys):
    code, out, _ = run(["oracle", "--kind", "st", "--graph", "path:3"],
                       capsys)
    assert code == 0
    assert "st=3" in out


def test_oracle_rt_p(capsys):
    code, out, _ = run(["oracle", "--kind", "rt_p", "--graph", "complete:4",
                        "--p", "2"], capsys)
    assert code == 0
    assert "rt_p=1" in out


def test_oracle_sandwich(capsys):
    code, out, _ = run(["oracle", "--kind", "sandwich", "--graph", "path:3"],
                       capsys)
    assert code == 0
    assert "holds" in out


def test_oracle_cap_exit_2(capsys):
    code, _, err = run(["oracle", "--kind", "st", "--graph", "path:9"],
                       capsys)
    assert code == 2
    assert "cap" in err.lower()


def test_export_dot(tmp_path, capsys):
    npath = tmp_path / "net.json"
    run(["build", "--construction", "odd_even", "--graph", "path:4",
         "--out", str(npath)], capsys)
    code, out, _ = run(["export", "--net", str(npath), "--format", "dot"],
                       capsys)
    assert code == 0
    assert out.startswith("graph")
    assert out.count(" -- ") == 3
    # an edge no stage uses is drawn without a label
    data = json.loads(npath.read_text())
    data["stages"] = data["stages"][:1]  # (1,2) and (3,4) only
    del data["certificate"]
    npath.write_text(json.dumps(data))
    code, out, _ = run(["export", "--net", str(npath), "--format", "dot"],
                       capsys)
    assert code == 0
    assert "  2 -- 3;\n" in out and '  1 -- 2 [label="1"];' in out


def test_export_json_roundtrips(tmp_path, capsys):
    npath = tmp_path / "net.json"
    run(["build", "--construction", "bitonic", "--graph", "hypercube:3",
         "--out", str(npath)], capsys)
    code, out, _ = run(["export", "--net", str(npath), "--format", "json"],
                       capsys)
    assert code == 0
    assert json.loads(out) == json.loads(npath.read_text())


def test_bench_mini_suite_csv(tmp_path, capsys):
    csv1 = tmp_path / "a.csv"
    code, _, _ = run(["bench", "--suite", "hypercubes", "--seed", "0",
                      "--out", str(csv1), "--format", "csv"], capsys)
    assert code == 0
    lines = csv1.read_text().strip().splitlines()
    assert lines[0].startswith("suite,")
    assert len(lines) == 5  # header + dims 1..4
    assert all(",pass," in ln or ln.endswith("pass") or ",pass" in ln
               for ln in lines[1:])


def _without_wall_time(table):
    """The lines of a bench table with the last column, wall_time, cut
    off; every row's wall_time must read like 0.001s."""
    lines = table.splitlines()
    assert lines[1].split()[-1] == "wall_time"
    for row in lines[3:]:
        assert re.fullmatch(r"\d+\.\d{3}s", row.split()[-1])
    return [line.rsplit(None, 1)[0] for line in lines]


def test_bench_table_output(tmp_path, capsys):
    code, out, _ = run(["bench", "--suite", "paths"], capsys)
    assert code == 0
    assert "odd_even" in out
    assert "pass" in out
    # the table goes to stdout, and --out also writes the CSV; only the
    # timing differs between two runs
    csv = tmp_path / "paths.csv"
    code, again, _ = run(["bench", "--suite", "paths", "--format", "table",
                          "--out", str(csv)], capsys)
    assert code == 0
    assert _without_wall_time(again) == _without_wall_time(out)
    assert csv.read_text().startswith("suite,")
    # --suite takes only known names; the library refuses the rest too
    with pytest.raises(ParameterError, match="unknown suite 'bogus'"):
        run_suite("bogus")


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["build", "--construction", "odd_even"])
    assert exc.value.code == 2


def test_unknown_construction_exit_1(capsys):
    code, _, err = run(["build", "--construction", "nope",
                        "--graph", "path:4"], capsys)
    assert code == 1
    assert "construction" in err.lower()


def _one_line_error(code, err, expected_code):
    assert code == expected_code
    assert err.count("\n") == 1 and err.startswith(("error:", "refused:"))


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_random_refuses_fewer_than_one_trial(tmp_path, capsys, trials):
    npath = tmp_path / "net.json"
    run(["build", "--construction", "odd_even", "--graph", "path:4",
         "--out", str(npath)], capsys)
    code, out, err = run(["verify", "--net", str(npath), "--method", "random",
                          "--trials", trials], capsys)
    assert out == ""
    _one_line_error(code, err, 1)
    assert "trials >= 1" in err


def _relabelled(tmp_path, spec, label):
    data = json.loads(to_json(generate(spec)))
    data["family"] = label
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(data))
    return str(gpath)


def test_build_refuses_a_path_labelled_hypercube(tmp_path, capsys):
    gpath = _relabelled(tmp_path, "path:4", "hypercube:2")
    code, out, err = run(["build", "--construction", "bitonic",
                          "--graph", gpath], capsys)
    _one_line_error(code, err, 1)
    assert out == "" and "hypercube:2" in err


def test_route_refuses_a_cycle_labelled_complete(tmp_path, capsys):
    gpath = _relabelled(tmp_path, "cycle:4", "complete:4")
    code, _, err = run(["route", "--graph", gpath, "--order", "2,1,4,3"],
                       capsys)
    _one_line_error(code, err, 1)


def _net_with_first_stage(tmp_path, capsys, stage):
    npath = tmp_path / "net.json"
    run(["build", "--construction", "odd_even", "--graph", "path:4",
         "--out", str(npath)], capsys)
    data = json.loads(npath.read_text())
    data["stages"][0] = stage
    npath.write_text(json.dumps(data))
    return str(npath)


def test_verify_refuses_a_stage_without_comparators(tmp_path, capsys):
    npath = _net_with_first_stage(tmp_path, capsys, {"cmps": []})
    code, _, err = run(["verify", "--net", npath], capsys)
    _one_line_error(code, err, 1)


def test_verify_refuses_a_two_element_comparator(tmp_path, capsys):
    npath = _net_with_first_stage(tmp_path, capsys, {"cmp": [[1, 2]]})
    code, _, err = run(["verify", "--net", npath], capsys)
    _one_line_error(code, err, 1)


@pytest.mark.parametrize("comparator, text", [
    ([1.0, 2, "dir"], "malformed stage"),
    ([True, 2, "dir"], "malformed stage"),
    ([0, 1, "dir"], "(0,1) is not an edge"),
    ([-1, 2, "dir"], "malformed stage"),
    ([0, 7, "dir"], "(0,7) is not an edge"),  # 0*5 + 7 keys edge (1, 2)
])
@pytest.mark.parametrize("command", ["verify", "export"])
def test_bad_vertex_ids_exit_1(tmp_path, capsys, command, comparator, text):
    npath = _net_with_first_stage(tmp_path, capsys, {"cmp": [comparator]})
    code, _, err = run([command, "--net", npath], capsys)
    _one_line_error(code, err, 1)
    assert text in err


CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.json"))


def test_malformed_corpus_is_not_empty():
    assert len(CORPUS) >= 20


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
@pytest.mark.parametrize("command", ["verify", "export"])
def test_malformed_corpus_exits_1_or_2_with_one_line(capsys, command, path):
    code, out, err = run([command, "--net", str(path)], capsys)
    assert code in (1, 2) and out == ""
    _one_line_error(code, err, code)



@pytest.mark.parametrize("command", ["verify", "export"])
def test_a_plan_file_is_refused_as_a_network(capsys, command):
    # a valid plan is malformed network input: StructureError, so exit 1
    path = Path(__file__).parent / "corpus" / "plan_document.json"
    code, out, err = run([command, "--net", str(path)], capsys)
    assert out == ""
    _one_line_error(code, err, 1)
    assert 'must not carry "plan"' in err

GRAPH_CORPUS = sorted((Path(__file__).parent / "corpus" / "graphs")
                      .glob("*.json"))


def test_malformed_graph_corpus_is_not_empty():
    assert len(GRAPH_CORPUS) >= 12


@pytest.mark.parametrize("path", GRAPH_CORPUS, ids=lambda p: p.stem)
@pytest.mark.parametrize("command", [["build", "--construction", "contour"],
                                     ["route"]], ids=["build", "route"])
def test_malformed_graph_corpus_exits_1_or_2_with_one_line(capsys, command,
                                                           path):
    code, out, err = run(command + ["--graph", str(path)], capsys)
    assert code in (1, 2) and out == ""
    _one_line_error(code, err, code)


def test_oracle_st_refuses_n7_past_the_mask_width(capsys):
    code, _, err = run(["oracle", "--kind", "st", "--graph", "path:7",
                        "--cap", "7"], capsys)
    _one_line_error(code, err, 2)


def test_generate_refuses_a_huge_spec(capsys):
    code, out, err = run(["generate", "--graph", "hypercube:60"], capsys)
    _one_line_error(code, err, 2)
    assert out == "" and "hypercube:60" in err


def test_oracle_rt_refuses_n10_whatever_the_cap(capsys):
    code, _, err = run(["oracle", "--kind", "rt", "--graph", "path:10",
                        "--cap", "10"], capsys)
    _one_line_error(code, err, 2)
    assert "exceeds cap 9" in err


def test_oracle_rt_p_cap_override_stops_at_the_rt_limit(capsys, monkeypatch):
    monkeypatch.setenv("MATCHNET_CAP_OVERRIDE", "26")
    code, _, err = run(["oracle", "--kind", "rt_p", "--graph", "path:12",
                        "--p", "2"], capsys)
    _one_line_error(code, err, 2)
    assert "exceeds cap 9" in err


def test_verify_exhaustive_refuses_n11_whatever_the_cap(tmp_path, capsys,
                                                        monkeypatch):
    npath = tmp_path / "net.json"
    run(["build", "--construction", "odd_even", "--graph", "path:11",
         "--out", str(npath)], capsys)
    monkeypatch.setenv("MATCHNET_CAP_OVERRIDE", "26")
    code, _, err = run(["verify", "--net", str(npath),
                        "--method", "exhaustive"], capsys)
    _one_line_error(code, err, 2)
    assert "exceeds cap 10" in err


def test_construction_error_exits_1(capsys, monkeypatch):
    def broken(g, pi):
        raise ConstructionError("planted")

    monkeypatch.setattr(cli, "route_auto", broken)
    code, _, err = run(["route", "--graph", "path:3"], capsys)
    _one_line_error(code, err, 1)
    assert "planted" in err


def test_product_host_reloads_and_verifies(tmp_path, capsys):
    npath = tmp_path / "net.json"
    code, _, _ = run(["build", "--construction", "product",
                      "--graph", "mesh:3,3", "--out", str(npath)], capsys)
    assert code == 0
    assert json.loads(npath.read_text())["graph"]["family"] == "product"
    code, out, _ = run(["verify", "--net", str(npath)], capsys)
    assert code == 0 and out.startswith("PASS")
