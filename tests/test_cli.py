"""Tests for the command-line interface (:mod:`repro.cli`)."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import CacheCorruptWarning

BOOK_XML = (
    "<bib><book><title>T</title><quantity>5</quantity></book>"
    "<book><quantity>50</quantity></book></bib>"
)

BOOK_DTD = """
<!ELEMENT bib (book*)>
<!ELEMENT book (title?, quantity)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT quantity (#PCDATA)>
"""

PROGRAM = """
x = <doc><B/><A/></doc>
y = read $x//A
insert $x/B, <C/>
z = read $x//C
u = read $x//A
"""


class TestEval:
    def test_eval_inline(self, capsys):
        code = main(["eval", "--xpath", "bib/book", "--xml-text", BOOK_XML])
        assert code == 0
        assert "2 node(s) selected" in capsys.readouterr().out

    def test_eval_file(self, tmp_path, capsys):
        doc = tmp_path / "doc.xml"
        doc.write_text(BOOK_XML)
        code = main(["eval", "--xpath", "//quantity", "--file", str(doc)])
        assert code == 0
        assert "2 node(s)" in capsys.readouterr().out

    def test_eval_subtrees(self, capsys):
        code = main(
            ["eval", "--xpath", "bib/book[.//quantity < 10]",
             "--xml-text", BOOK_XML, "--subtrees"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 node(s)" in out
        assert "<book>" in out


class TestCheck:
    def test_conflict_exit_code(self, capsys):
        code = main(
            ["check", "--read", "*//C", "--insert", "*/B", "--xml", "<C/>"]
        )
        assert code == 1
        assert "conflict" in capsys.readouterr().out

    def test_no_conflict_exit_code(self, capsys):
        code = main(
            ["check", "--read", "*//A", "--insert", "*/B", "--xml", "<C/>"]
        )
        assert code == 0
        assert "no-conflict" in capsys.readouterr().out

    def test_delete_check(self):
        assert main(["check", "--read", "a//c", "--delete", "a/b"]) == 1

    def test_witness_printed(self, capsys):
        code = main(
            ["check", "--read", "a//c", "--delete", "a/b", "--witness"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "witness document" in out
        assert "as XML:" in out

    def test_kind_flag(self, capsys):
        # Node-silent but tree-loud instance.
        node_code = main(["check", "--read", "a", "--insert", "a/B"])
        tree_code = main(
            ["check", "--read", "a", "--insert", "a/B", "--kind", "tree"]
        )
        assert node_code == 0
        assert tree_code == 1

    def test_unknown_exit_code(self):
        # The patterns genuinely overlap (the trunk prefilter cannot
        # discharge the pair) and the smallest witness has 5 nodes, so a
        # budget of 2 leaves the question open.
        code = main(
            ["check", "--read", "a[b]/c//d", "--delete", "a/c/c/d",
             "--budget", "2"]
        )
        assert code == 2

    def test_bad_xpath_reports_error(self, capsys):
        code = main(["check", "--read", "][", "--delete", "a/b"])
        assert code == 64
        assert "error:" in capsys.readouterr().err

    def test_schema_constrained_check(self, tmp_path):
        dtd = tmp_path / "schema.dtd"
        dtd.write_text(BOOK_DTD)
        # Nested books: conflicts unconstrained, silenced by the schema.
        plain = main(["check", "--read", "bib/book/book", "--delete", "bib/book"])
        constrained = main(
            ["check", "--read", "bib/book/book", "--delete", "bib/book",
             "--schema", str(dtd)]
        )
        assert plain == 1
        assert constrained == 2  # no valid witness within the budget

    def test_schema_constrained_conflict_persists(self, tmp_path, capsys):
        dtd = tmp_path / "schema.dtd"
        dtd.write_text(BOOK_DTD)
        code = main(
            ["check", "--read", "//quantity", "--delete", "bib/book",
             "--schema", str(dtd), "--witness"]
        )
        assert code == 1
        assert "witness document" in capsys.readouterr().out


class TestCommute:
    def test_conflicting_inserts(self):
        code = main(
            ["commute", "--insert1", "a/b", "--xml1", "<c/>",
             "--insert2", "a/b/c", "--xml2", "<d/>"]
        )
        assert code == 1

    def test_commuting_pair_is_unknown(self):
        # Branching updates take the bounded search, which cannot prove
        # commutation (no witness bound), so 2.
        code = main(
            ["commute", "--insert1", "a[c]/b", "--xml1", "<x/>",
             "--insert2", "a[e]/d", "--xml2", "<y/>", "--budget", "3"]
        )
        assert code == 2

    def test_commuting_linear_pair_is_decided(self):
        code = main(
            ["commute", "--insert1", "a/b", "--xml1", "<x/>",
             "--insert2", "a/d", "--xml2", "<y/>", "--budget", "3"]
        )
        assert code == 0

    def test_insert_delete_pair(self):
        code = main(
            ["commute", "--insert1", "a/b", "--xml1", "<c/>",
             "--delete2", "a/b/c"]
        )
        assert code == 1


class TestAnalyze:
    def test_analysis_output(self, tmp_path, capsys):
        source = tmp_path / "prog.xup"
        source.write_text(PROGRAM)
        code = main(["analyze", str(source)])
        assert code == 0
        out = capsys.readouterr().out
        assert "read-insert" in out
        assert "redundant read" in out

    def test_optimize_flag(self, tmp_path, capsys):
        source = tmp_path / "prog.xup"
        source.write_text(PROGRAM)
        code = main(["analyze", str(source), "--optimize"])
        assert code == 0
        out = capsys.readouterr().out
        assert "optimized program" in out
        assert "aliases: {'u': 'y'}" in out

    def test_hoist_flag(self, tmp_path, capsys):
        source = tmp_path / "prog.xup"
        source.write_text(
            "x = <doc><B/><A/></doc>\ninsert $x/B, <C/>\ny = read $x//A\n"
        )
        code = main(["analyze", str(source), "--hoist"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hoisted program" in out
        assert "moves" in out


class TestValidate:
    def test_valid_document(self, tmp_path, capsys):
        dtd = tmp_path / "schema.dtd"
        dtd.write_text(BOOK_DTD)
        code = main(
            ["validate", "--dtd", str(dtd), "--xml-text", BOOK_XML]
        )
        assert code == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_document(self, tmp_path, capsys):
        dtd = tmp_path / "schema.dtd"
        dtd.write_text(BOOK_DTD)
        code = main(
            ["validate", "--dtd", str(dtd), "--xml-text", "<bib><pirate/></bib>"]
        )
        assert code == 1
        assert "violation" in capsys.readouterr().out


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "check",
             "--read", "*//C", "--insert", "*/B", "--xml", "<C/>"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "conflict" in proc.stdout


class TestObservabilityFlags:
    """Tier-1 smoke coverage for --stats / --trace (details in test_obs.py)."""

    def test_stats_smoke_in_process(self, capsys):
        code = main(
            ["check", "--read", "*//C", "--insert", "*/B", "--xml", "<C/>",
             "--stats"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "--- stats ---" in out
        assert "path: linear" in out
        assert "detector.dispatch" in out
        assert "conflict.queries_total{path=linear}" in out

    def test_stats_smoke_subprocess(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "check",
             "--read", "*//C", "--insert", "*/B", "--xml", "<C/>", "--stats"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "--- stats ---" in proc.stdout
        assert "conflict.queries_total{path=linear}" in proc.stdout

    def test_trace_smoke_jsonl(self, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        code = main(
            ["check", "--read", "*//C", "--insert", "*/B", "--xml", "<C/>",
             "--trace", str(path)]
        )
        assert code == 1
        names = {json.loads(line)["name"] for line in path.read_text().splitlines()}
        assert {"detector.dispatch", "linear.read_insert"} <= names


CATALOGUE = """
{"titles":  {"op": "read",   "xpath": "bib/book/title"},
 "prices":  {"op": "read",   "xpath": "bib/book/price"},
 "restock": {"op": "insert", "xpath": "bib/book", "xml": "<restock/>"},
 "purge":   {"op": "delete", "xpath": "bib/book"}}
"""


def _write_catalogue(tmp_path, text=CATALOGUE):
    path = tmp_path / "ops.json"
    path.write_text(text)
    return str(path)


class TestMatrix:
    def test_conflict_exit_code_and_summary(self, tmp_path, capsys):
        code = main(["matrix", "--ops", _write_catalogue(tmp_path)])
        assert code == 1  # titles <-> purge conflicts
        out = capsys.readouterr().out
        assert "4 operation(s), 6 pair(s)" in out
        assert "titles <-> purge: conflict" in out

    def test_render_flag(self, tmp_path, capsys):
        code = main(["matrix", "--ops", _write_catalogue(tmp_path), "--render"])
        assert code == 1
        assert "conflict" in capsys.readouterr().out

    def test_render_empty_catalogue(self, tmp_path, capsys):
        code = main(["matrix", "--ops", _write_catalogue(tmp_path, "{}"), "--render"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("0 operation(s), 0 pair(s)")
        assert out.splitlines()[1].strip() == ""

    def test_json_schema(self, tmp_path, capsys):
        import json

        code = main(["matrix", "--ops", _write_catalogue(tmp_path), "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "matrix"
        assert sorted(payload["names"]) == ["prices", "purge", "restock", "titles"]
        verdicts = {
            (entry["first"], entry["second"]): entry["verdict"]
            for entry in payload["verdicts"]
        }
        assert verdicts[("titles", "purge")] == "conflict"
        assert verdicts[("titles", "prices")] == "no-conflict"
        assert payload["stats"]["operations"] == 4
        assert payload["stats"]["conflict"] >= 1

    def test_no_conflict_exit_code(self, tmp_path):
        path = _write_catalogue(
            tmp_path,
            '{"r1": {"op": "read", "xpath": "a/b"},'
            ' "r2": {"op": "read", "xpath": "a//c"}}',
        )
        assert main(["matrix", "--ops", path]) == 0

    def test_unknown_exit_code(self, tmp_path):
        # Branching inserts: the bounded search leaves the pair open.
        path = _write_catalogue(
            tmp_path,
            '{"i1": {"op": "insert", "xpath": "a[c]/b", "xml": "<x/>"},'
            ' "i2": {"op": "insert", "xpath": "a[e]/b", "xml": "<y/>"}}',
        )
        assert main(["matrix", "--ops", path, "--budget", "1"]) == 2

    def test_cache_file_roundtrip(self, tmp_path, capsys):
        ops = _write_catalogue(tmp_path)
        cache = tmp_path / "verdicts.json"
        main(["matrix", "--ops", ops, "--cache", str(cache)])
        assert cache.exists()
        code = main(["matrix", "--ops", ops, "--cache", str(cache), "--json"])
        assert code == 1  # warm run, same verdicts

    def test_bad_catalogue_reports_error(self, tmp_path, capsys):
        path = _write_catalogue(tmp_path, '{"x": {"op": "merge", "xpath": "a"}}')
        assert main(["matrix", "--ops", path]) == 64
        assert "unknown op" in capsys.readouterr().err

    def test_malformed_json_reports_error(self, tmp_path, capsys):
        path = _write_catalogue(tmp_path, "{nope")
        assert main(["matrix", "--ops", path]) == 64
        assert "not valid JSON" in capsys.readouterr().err


class TestSchedule:
    def test_phases_printed(self, tmp_path, capsys):
        code = main(["schedule", "--ops", _write_catalogue(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase 1:" in out
        assert "purge" in out

    def test_json_schema(self, tmp_path, capsys):
        import json

        code = main(["schedule", "--ops", _write_catalogue(tmp_path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "schedule"
        flat = sorted(name for batch in payload["batches"] for name in batch)
        assert flat == ["prices", "purge", "restock", "titles"]
        assert payload["stats"]["batches"] == len(payload["batches"])

    def test_jobs_flag_accepted(self, tmp_path):
        code = main(
            ["schedule", "--ops", _write_catalogue(tmp_path), "--jobs", "2"]
        )
        assert code == 0


class TestJsonReports:
    def test_check_json(self, capsys):
        import json

        code = main(
            ["check", "--read", "*//C", "--insert", "*/B", "--xml", "<C/>",
             "--json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "check"
        assert payload["verdict"] == "conflict"
        assert payload["kind"] == "node"
        assert payload["method"]
        assert payload["witness"] is not None
        assert "<" in payload["witness"]["xml"]

    def test_check_json_no_conflict(self, capsys):
        import json

        code = main(
            ["check", "--read", "a/b", "--insert", "a/b", "--xml", "<c/>",
             "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "no-conflict"
        assert payload["witness"] is None

    def test_commute_json(self, capsys):
        import json

        code = main(
            ["commute", "--insert1", "a/b", "--xml1", "<x/>",
             "--delete2", "a/b", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "commute"
        assert payload["verdict"] in {"conflict", "no-conflict", "unknown"}
        assert code == {"no-conflict": 0, "conflict": 1, "unknown": 2}[
            payload["verdict"]
        ]


class TestCacheCommand:
    @pytest.fixture(autouse=True)
    def _no_env_faults(self, monkeypatch):
        # inspect/merge assert exact snapshot contents; the CI fault
        # job's cache_corrupt injection would (legitimately) trip the
        # corrupt-snapshot path these tests pin down explicitly.
        from repro.resilience import faults

        monkeypatch.delenv(faults.ENV_SPEC, raising=False)
        faults.uninstall()
        yield
        faults.uninstall()

    @pytest.fixture
    def snapshot(self, tmp_path, capsys):
        ops = tmp_path / "ops.json"
        ops.write_text(
            '{"titles": {"op": "read", "xpath": "bib/book/title"},'
            ' "purge": {"op": "delete", "xpath": "bib/book"}}'
        )
        path = tmp_path / "cache.json"
        main(["matrix", "--ops", str(ops), "--cache", str(path)])
        capsys.readouterr()  # drop the matrix output
        return path

    def test_inspect_text(self, snapshot, capsys):
        code = main(["cache", "inspect", str(snapshot)])
        assert code == 0
        out = capsys.readouterr().out
        assert "version 1" in out
        assert "Delete/Read" in out

    def test_inspect_json(self, snapshot, capsys):
        import json

        code = main(["cache", "inspect", str(snapshot), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "cache-inspect"
        assert payload["version"] == 1
        assert payload["corrupt"] is False
        assert payload["entries"] == sum(payload["by_kind"].values())
        assert payload["entries"] == sum(payload["by_verdict"].values())
        assert payload["configs"] == 1

    def test_inspect_corrupt_snapshot_exits_1(self, snapshot, capsys):
        import json

        text = snapshot.read_text()
        snapshot.write_text(text[: int(len(text) * 0.7)])
        code = main(["cache", "inspect", str(snapshot), "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["corrupt"] is True
        assert "salvaged" in payload["salvage"]

    def test_inspect_malformed_snapshot_exits_1(self, snapshot, capsys):
        import json

        payload = json.loads(snapshot.read_text())
        payload["entries"][0]["verdict"] = "conflicu"  # parseable, no verdict
        snapshot.write_text(json.dumps(payload))
        code = main(["cache", "inspect", str(snapshot)])
        assert code == 1
        captured = capsys.readouterr()
        assert "corrupt (salvaged), 0 entries" in captured.out
        assert "Traceback" not in captured.err

    def test_merge_salvages_malformed_snapshot(self, snapshot, tmp_path, capsys):
        snapshot.write_text('[{"version": 1, "entries": []}]')
        out = tmp_path / "merged.json"
        with pytest.warns(CacheCorruptWarning):
            code = main(["cache", "merge", "--out", str(out), str(snapshot)])
        assert code == 0
        assert "wrote 0 entries" in capsys.readouterr().out

    def test_inspect_missing_file(self, tmp_path, capsys):
        code = main(["cache", "inspect", str(tmp_path / "absent.json")])
        assert code == 64
        assert "cannot read snapshot" in capsys.readouterr().err

    def test_merge(self, snapshot, tmp_path, capsys):
        import json

        ops = tmp_path / "more-ops.json"
        ops.write_text(
            '{"reads": {"op": "read", "xpath": "q/w"},'
            ' "drop": {"op": "delete", "xpath": "q/w"}}'
        )
        other = tmp_path / "other.json"
        main(["matrix", "--ops", str(ops), "--cache", str(other)])
        capsys.readouterr()
        out = tmp_path / "merged" / "all.json"  # parents created by save
        code = main(
            ["cache", "merge", "--out", str(out), str(snapshot), str(other),
             "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "cache-merge"
        assert [item["added"] for item in payload["inputs"]] == [1, 1]
        assert payload["entries"] == 2
        assert out.exists()
        # The merged snapshot answers both catalogues.
        code = main(["cache", "inspect", str(out), "--json"])
        merged = json.loads(capsys.readouterr().out)
        assert merged["entries"] == 2
