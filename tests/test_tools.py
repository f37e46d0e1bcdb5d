"""The shared harness of `tools/bench_*.py` (`tools/benchtool.py`): its
command line, its statistics and its store; and the refusals of
`tools/record_cli_goldens.py`.  No test starts a child."""

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))

import benchtool  # noqa: E402
import record_cli_goldens  # noqa: E402


def test_default_tree_is_this_checkout():
    trees, out = benchtool.parse_args("doc", [])
    assert trees == {"change": str(benchtool.ROOT / "src")}
    assert out is None


def test_trees_keep_their_order_and_resolve(tmp_path):
    trees, out = benchtool.parse_args(
        "doc", ["parent=%s" % tmp_path, "change=src", "--out", "B.json"])
    assert list(trees) == ["parent", "change"]
    assert trees["parent"] == str(tmp_path)
    assert pathlib.Path(trees["change"]).is_absolute()
    assert out == "B.json"


@pytest.mark.parametrize("specs", [["foo"], ["=src"], ["a="], ["a=/x", "a=/y"]])
def test_bad_tree_specs_are_usage_errors(specs, capsys):
    with pytest.raises(SystemExit) as exc:
        benchtool.parse_args("doc", specs)
    assert exc.value.code == 2
    assert "expected distinct LABEL=SRC pairs" in capsys.readouterr().err


def test_child_env_reads_no_bytecode_of_the_tree(monkeypatch):
    monkeypatch.setenv("GVH_TRUNC", "32")
    env = benchtool.child_env("/trees/parent/src", "/cache")
    assert env["PYTHONPATH"] == "/trees/parent/src"
    assert env["PYTHONPYCACHEPREFIX"] == "/cache"
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert env["PYTHONHASHSEED"] == "0" and env["OPENBLAS_NUM_THREADS"] == "1"
    assert "GVH_TRUNC" not in env


def test_quartiles():
    assert benchtool.quartiles([3, 1, 2]) == {"median": 2, "q1": 1.5, "q3": 2.5}
    assert benchtool.quartiles([4, 1, 3, 2, 5]) == {"median": 3, "q1": 2, "q3": 4}


def test_store_keeps_the_labels_it_does_not_rewrite(tmp_path):
    path = tmp_path / "BENCH.json"
    benchtool.store({"parent": {"x": 1}, "change": {"x": 2}}, str(path))
    benchtool.store({"change": {"x": 3}, "other": {"x": 4}}, str(path))
    assert json.loads(path.read_text()) == {
        "parent": {"x": 1}, "change": {"x": 3}, "other": {"x": 4}}


def test_rounds_reverse_the_tree_order_every_round():
    seen = []
    runs = benchtool.rounds({"a": "A", "b": "B"}, ["x", "y"], 3,
                            lambda src, case: seen.append(src + case) or len(seen))
    assert seen == ["Ax", "Bx", "Ay", "By", "Bx", "Ax", "By", "Ay", "Ax", "Bx", "Ay", "By"]
    assert runs == {"a": [[1, 6, 9], [3, 8, 11]], "b": [[2, 5, 10], [4, 7, 12]]}


@pytest.mark.parametrize("failing, code, written", [
    (["verify", "r2n"], 2, False),                  # an undecided verdict
    (["bracket", "r2n", "q2", "p1"], 1, True),      # bad input, as recorded
])
def test_cli_goldens_refuse_a_failing_verify(monkeypatch, tmp_path, failing,
                                             code, written):
    out = tmp_path / "cli_goldens.json"
    monkeypatch.setattr(record_cli_goldens, "OUT", out)
    monkeypatch.setattr(record_cli_goldens, "record", lambda argv: {
        "argv": argv, "exit": code if argv == failing else 0, "stdout": "",
        "stderr": ""})
    if written:
        record_cli_goldens.main()
        assert len(json.loads(out.read_text())) == len(record_cli_goldens.CASES)
    else:
        with pytest.raises(SystemExit, match="refusing to record"):
            record_cli_goldens.main()
        assert not out.exists()
