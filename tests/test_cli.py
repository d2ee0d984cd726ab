"""The command-line interface."""

import json

import pytest

from repro.cli import main
from repro.io import (
    eer_schema_to_dict,
    relational_schema_to_dict,
    state_to_dict,
)
from repro.workloads.university import (
    university_eer,
    university_relational,
    university_state,
)


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "uni.json"
    path.write_text(
        json.dumps(relational_schema_to_dict(university_relational()))
    )
    return str(path)


@pytest.fixture
def eer_file(tmp_path):
    path = tmp_path / "uni_eer.json"
    path.write_text(json.dumps(eer_schema_to_dict(university_eer())))
    return str(path)


@pytest.fixture
def state_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(
        json.dumps(state_to_dict(university_state(n_courses=5, seed=1)))
    )
    return str(path)


def test_describe(schema_file, capsys):
    assert main(["describe", schema_file]) == 0
    out = capsys.readouterr().out
    assert "OFFER(O.C.NR*, O.D.NAME)" in out


def test_check_consistent(schema_file, state_file, capsys):
    assert main(["check", schema_file, state_file]) == 0
    assert "consistent" in capsys.readouterr().out


def test_check_inconsistent(schema_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "relations": {
                    "OFFER": [{"O.C.NR": "ghost", "O.D.NAME": "nowhere"}]
                }
            }
        )
    )
    assert main(["check", schema_file, str(bad)]) == 1
    assert "violation" in capsys.readouterr().out


def test_families(schema_file, capsys):
    assert main(["families", schema_file]) == 0
    out = capsys.readouterr().out
    assert "COURSE <-" in out and "PERSON <-" in out


def test_merge_writes_output(schema_file, tmp_path, capsys):
    out_path = tmp_path / "merged.json"
    code = main(
        [
            "merge",
            schema_file,
            "COURSE",
            "OFFER",
            "TEACH",
            "ASSIST",
            "-o",
            str(out_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "removed" in out
    data = json.loads(out_path.read_text())
    names = {s["name"] for s in data["schemes"]}
    assert "COURSE'" in names and "OFFER" not in names


def test_merge_keep_redundant(schema_file, capsys):
    assert (
        main(
            ["merge", schema_file, "COURSE", "OFFER", "--keep-redundant"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "no removal pass" in out
    assert "O.C.NR" in out


def test_plan(schema_file, capsys):
    assert main(["plan", schema_file, "--strategy", "aggressive"]) == 0
    assert "8 schemes -> 3 schemes" in capsys.readouterr().out


def test_migrate_round_trip(schema_file, state_file, tmp_path, capsys):
    out_path = tmp_path / "migrated.json"
    code = main(
        [
            "migrate",
            schema_file,
            state_file,
            "--members",
            "COURSE",
            "OFFER",
            "TEACH",
            "ASSIST",
            "-o",
            str(out_path),
        ]
    )
    assert code == 0
    assert "round trip verified" in capsys.readouterr().out
    migrated = json.loads(out_path.read_text())
    assert "COURSE'" in migrated["relations"]


def test_translate(eer_file, tmp_path, capsys):
    out_path = tmp_path / "translated.json"
    assert main(["translate", eer_file, "-o", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert {s["name"] for s in data["schemes"]} >= {"COURSE", "OFFER"}


def test_translate_teorey(eer_file, capsys):
    assert main(["translate", eer_file, "--teorey"]) == 0
    assert "folded" in capsys.readouterr().out


def test_structures(eer_file, capsys):
    assert main(["structures", eer_file]) == 0
    assert "relationship-star at COURSE" in capsys.readouterr().out


def test_ddl(schema_file, capsys):
    assert main(["ddl", schema_file, "--dialect", "db2"]) == 0
    out = capsys.readouterr().out
    assert "CREATE TABLE" in out and "FOREIGN KEY" in out


def test_ddl_strict_flags_warnings(schema_file, tmp_path, capsys):
    # Merge first so a non-key-based dependency appears, then DB2+strict
    # must exit nonzero.
    merged_path = tmp_path / "merged.json"
    main(
        ["merge", schema_file, "COURSE", "OFFER", "TEACH",
         "--keep-redundant", "-o", str(merged_path)]
    )
    capsys.readouterr()
    assert (
        main(["ddl", str(merged_path), "--dialect", "db2", "--strict"]) == 1
    )
    assert "WARNING" in capsys.readouterr().out


def test_minimize(schema_file, capsys):
    assert main(["minimize", schema_file]) == 0
    assert "dropped" in capsys.readouterr().out


def test_bench_writes_report(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(["bench", "--sizes", "50", "--ops", "20", "-o", str(out)]) == 0
    assert "find_referencing" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["results"][0]["n_courses"] == 50
    assert (
        report["results"][0]["speedup_vs_scan"]["restrict_delete"] > 0
    )


def test_bench_bad_sizes_errors(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--sizes", "ten"])


def test_wrong_file_kind_errors(eer_file, schema_file):
    with pytest.raises(SystemExit):
        main(["describe", eer_file])
    with pytest.raises(SystemExit):
        main(["structures", schema_file])


def test_missing_file_errors(tmp_path):
    with pytest.raises(SystemExit):
        main(["describe", str(tmp_path / "nope.json")])


def test_bad_merge_members(schema_file, capsys):
    assert main(["merge", schema_file, "COURSE", "NOPE"]) == 2
    assert "error" in capsys.readouterr().err


def test_plan_script_and_replay(schema_file, state_file, tmp_path, capsys):
    script_path = tmp_path / "script.json"
    out_schema = tmp_path / "planned.json"
    assert (
        main(
            ["plan", schema_file, "-o", str(out_schema), "--script", str(script_path)]
        )
        == 0
    )
    capsys.readouterr()
    replayed = tmp_path / "replayed.json"
    migrated = tmp_path / "migrated.json"
    code = main(
        [
            "replay",
            str(script_path),
            schema_file,
            "--state",
            state_file,
            "-o",
            str(replayed),
            "--state-output",
            str(migrated),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "replayed 2 step(s)" in out
    assert "round trip verified" in out
    assert json.loads(replayed.read_text()) == json.loads(out_schema.read_text())


def test_replay_wrong_schema_errors(schema_file, tmp_path, capsys):
    script_path = tmp_path / "script.json"
    main(["plan", schema_file, "--script", str(script_path)])
    capsys.readouterr()
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"schemes": []}))
    assert main(["replay", str(script_path), str(wrong)]) == 2


def test_init_writes_usable_demo_files(tmp_path, capsys):
    target = tmp_path / "demo"
    assert main(["init", str(target)]) == 0
    capsys.readouterr()
    assert main(["families", str(target / "university.json")]) == 0
    capsys.readouterr()
    assert (
        main(
            [
                "check",
                str(target / "university.json"),
                str(target / "university_state.json"),
            ]
        )
        == 0
    )
    assert "consistent" in capsys.readouterr().out


# -- observability surfaces (PR 2) --------------------------------------------


def test_check_trace_writes_jsonl(schema_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "relations": {
                    "OFFER": [{"O.C.NR": "ghost", "O.D.NAME": "nowhere"}]
                }
            }
        )
    )
    trace = tmp_path / "trace.jsonl"
    assert main(["check", schema_file, str(bad), "--trace", str(trace)]) == 1
    capsys.readouterr()
    events = [
        json.loads(line) for line in trace.read_text().splitlines() if line
    ]
    assert events, "trace file is empty"
    violations = [e for e in events if e["event"] == "violation"]
    assert violations
    # Every rejection names the violated constraint and its paper rule.
    for v in violations:
        assert v["constraint"]
        assert v["rule"]
    assert any(
        v["constraint"] == "OFFER[O.C.NR] <= COURSE[C.NR]" for v in violations
    )


def test_check_trace_to_stdout_and_explain(schema_file, state_file, capsys):
    assert main(["check", schema_file, state_file, "--trace", "--explain"]) == 0
    out = capsys.readouterr().out
    assert "EXPLAIN check" in out
    assert '"event": "check"' in out
    assert "consistent" in out


def test_explain_mutations(schema_file, tmp_path, capsys):
    out_path = tmp_path / "explain.json"
    code = main(
        [
            "explain",
            schema_file,
            "--scheme",
            "OFFER",
            "--op",
            "delete",
            "-o",
            str(out_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "EXPLAIN delete on OFFER" in out
    assert "restrict-delete" in out
    data = json.loads(out_path.read_text())
    assert set(data["schemes"]) == {"OFFER"}
    assert set(data["schemes"]["OFFER"]) == {"delete"}


def test_explain_unknown_scheme_errors(schema_file):
    with pytest.raises(SystemExit):
        main(["explain", schema_file, "--scheme", "NOPE"])


def test_explain_plan(schema_file, capsys):
    assert main(["explain", schema_file, "--plan", "--strategy", "key-based"]) == 0
    out = capsys.readouterr().out
    assert "EXPLAIN merge plan" in out
    assert "Proposition 5.1" in out


def test_merge_explain_and_trace(schema_file, tmp_path, capsys):
    trace = tmp_path / "merge.jsonl"
    code = main(
        [
            "merge",
            schema_file,
            "COURSE",
            "OFFER",
            "TEACH",
            "ASSIST",
            "--explain",
            "--trace",
            str(trace),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "null-constraint provenance" in out
    assert "Definition 4.1" in out
    (event,) = [json.loads(line) for line in trace.read_text().splitlines()]
    assert event["event"] == "merge-applied"
    assert event["scheme"] == "COURSE'"


def test_plan_explain_and_trace(schema_file, tmp_path, capsys):
    trace = tmp_path / "plan.jsonl"
    code = main(["plan", schema_file, "--explain", "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    assert "EXPLAIN merge plan" in out
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [e["event"] for e in events].count("merge-decision") == 2
    assert any(e["event"] == "merge-applied" for e in events)


def test_monitor_rejects_bad_target_and_interval(capsys):
    with pytest.raises(SystemExit):
        main(["monitor", "not-a-target"])
    assert "HOST:PORT" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["monitor", "127.0.0.1:1", "--interval", "0"])
    assert "--interval" in capsys.readouterr().err


def test_monitor_unreachable_server_errors(capsys):
    # A closed port: the CLI reports the failure instead of raising.
    import socket

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    with pytest.raises(SystemExit):
        main(["monitor", f"127.0.0.1:{port}", "--once"])
    assert "cannot reach" in capsys.readouterr().err


def test_resolve_workers_semantics():
    """``--workers`` absent: plain server; explicit 0: one worker per
    detected core; explicit N: exactly N; negative: rejected."""
    import os

    from repro.cli import CliError, build_parser, resolve_workers

    assert resolve_workers(None) is None
    assert resolve_workers(0) == (os.cpu_count() or 1)
    assert resolve_workers(3) == 3
    with pytest.raises(CliError):
        resolve_workers(-1)
    # The parser distinguishes "flag absent" from an explicit 0.
    args = build_parser().parse_args(["serve", "schema.json"])
    assert args.workers is None
    args = build_parser().parse_args(["serve", "schema.json", "--workers", "0"])
    assert args.workers == 0


def test_promote_unreachable_server_errors(capsys):
    import socket

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    with pytest.raises(SystemExit):
        main(["promote", f"127.0.0.1:{port}"])
    assert "cannot reach" in capsys.readouterr().err


def test_serve_rejects_a_malformed_replicate_from(schema_file):
    """Refused before the server starts -- not retried forever as an
    unreachable primary.  Run as a process with a timeout, so a server
    that does start fails the test instead of hanging it."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    command = [sys.executable, "-m", "repro", "serve", schema_file]
    command += ["--port", "0", "--replicate-from", "nope"]
    proc = subprocess.run(
        command, capture_output=True, text=True, timeout=30, env=env
    )
    assert proc.returncode == 2
    assert "HOST:PORT" in proc.stderr
    assert "listening on" not in proc.stdout
