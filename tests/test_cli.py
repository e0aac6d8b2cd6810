"""End-to-end CLI tests driving main() directly."""

from __future__ import annotations

import concurrent.futures
import csv
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from rbcsp import cli
from rbcsp.cli import main
from rbcsp.core import CspInstance, dumps_csp, loads_csp
from rbcsp.misbridge import csp_to_mis, emit_dimacs, mis_to_csp, parse_dimacs
from rbcsp.modelrb import generate_forced, phase_transition_params
from rbcsp.ulsa import UlsaConfig, run

from conftest import BYTE_VARIANTS, byte_variant

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
FENCE = re.compile(r"^ *```(\w*)\n(.*?)^ *```", re.M | re.S)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_writes_instance_with_hidden_solution(self, tmp_path, capsys):
        out = tmp_path / "a.csp"
        code, _, _ = run_cli(
            ["gen", "--n", "12", "--forced", "--seed", "1", "--out", str(out)],
            capsys)
        assert code == 0
        inst, sol = loads_csp(out.read_text())
        assert inst.n == 12 and sol is not None

    def test_deterministic_given_seed(self, tmp_path, capsys):
        a, b = tmp_path / "a.csp", tmp_path / "b.csp"
        run_cli(["gen", "--n", "10", "--seed", "9", "--out", str(a)], capsys)
        run_cli(["gen", "--n", "10", "--seed", "9", "--out", str(b)], capsys)
        assert a.read_text() == b.read_text()

    def test_entropy_seed_echoed(self, tmp_path, capsys):
        out = tmp_path / "c.csp"
        code, _, err = run_cli(["gen", "--n", "8", "--out", str(out)], capsys)
        assert code == 0
        assert "entropy seed" in err

    def test_custom_params(self, capsys):
        code, out, _ = run_cli(
            ["gen", "--n", "8", "--alpha", "0.7", "--p", "0.3", "--seed", "2"],
            capsys)
        assert code == 0
        inst, _ = loads_csp(out)
        assert inst.d == round(8 ** 0.7)

    def test_invalid_params_exit_1(self, capsys):
        code, _, err = run_cli(["gen", "--n", "1", "--seed", "0"], capsys)
        assert code == 1 and "error:" in err


class TestSolve:
    def test_gen_then_solve_success_json(self, tmp_path, capsys):
        path = tmp_path / "a.csp"
        run_cli(["gen", "--n", "12", "--forced", "--seed", "1",
                 "--out", str(path)], capsys)
        code, out, _ = run_cli(
            ["solve", "--in", str(path), "--seed", "2", "--max-iters", "10000"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["success"] is True
        assert record["seed"] == 2
        assert len(record["assignment"]) == 12
        assert record["stats"]["iterations"] == record["iterations"]

    def test_records_are_written_as_json_dumps_indents_them(self):
        # cli._json stands in for json.dumps(indent=2), whose encoder leaves
        # cyclic garbage
        instance, _ = generate_forced(phase_transition_params(12), 1)
        record = cli._record_json(run(instance, UlsaConfig(max_iterations=10_000), 2), "é.csp")
        for value in (record, {}, [], (1, (2, [])), "x", None,
                      {"a": [], "b": {"c": [1.5, float("nan"), -float("inf"), True, "é\n\""]}}):
            assert cli._json(value) == json.dumps(value, indent=2)

    def test_missing_input_exit_1(self, capsys):
        code, _, err = run_cli(
            ["solve", "--in", "/nonexistent/x.csp", "--seed", "1"], capsys)
        assert code == 1
        assert "no such file" in err and "/nonexistent/x.csp" in err

    def test_malformed_input_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csp"
        bad.write_text("p bcsp 2 2\n")
        code, _, err = run_cli(["solve", "--in", str(bad), "--seed", "1"], capsys)
        assert code == 1 and "error:" in err

    def test_target_flags(self, tmp_path, capsys):
        path = tmp_path / "a.csp"
        run_cli(["gen", "--n", "15", "--forced", "--seed", "3",
                 "--out", str(path)], capsys)
        code, out, _ = run_cli(
            ["solve", "--in", str(path), "--seed", "4",
             "--target", "14", "--conflict-cap", "4",
             "--max-iters", "200000"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["success"] is True
        assert len(record["subset"]) == 14

    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_conflict_cap_below_one_exit_1(self, tmp_path, capsys, command, cap):
        # with no --target the cap gates nothing, and is still refused
        path = tmp_path / "a.csp"
        path.write_text("p bcsp 3 2 1\nk 0 1 1\nf 0 0\n")
        seed = ["--seed", "0"] if command == "solve" else ["--runs", "2", "--base-seed", "0"]
        code, out, err = run_cli([command, "--in", str(path), *seed, "--conflict-cap", cap],
                                 capsys)
        assert code == 1 and out == ""
        assert err == f"error: conflict cap must be >= 1, got {cap}\n"


class TestBench:
    def test_outputs_all_files(self, tmp_path, capsys):
        path = tmp_path / "a.csp"
        run_cli(["gen", "--n", "12", "--forced", "--seed", "7",
                 "--out", str(path)], capsys)
        rtd_out = tmp_path / "rtd.csv"
        hist_out = tmp_path / "hist.csv"
        summary_out = tmp_path / "summary.json"
        code, _, _ = run_cli(
            ["bench", "--in", str(path), "--runs", "8", "--base-seed", "10",
             "--max-iters", "100000",
             "--rtd-out", str(rtd_out), "--hist-out", str(hist_out),
             "--summary-out", str(summary_out)], capsys)
        assert code == 0
        summary = json.loads(summary_out.read_text())
        assert summary["runs"] == 8 and summary["base_seed"] == 10
        assert "exponential_fit" in summary
        with open(rtd_out) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["iterations", "ecdf", "fitted"]
        assert len(rows) == summary["successes"] + 1
        with open(hist_out) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["conflicts", "runs"]
        assert sum(int(r[1]) for r in rows[1:]) == 8

    def test_summary_rates_are_ratios_of_the_summed_counters(self, tmp_path, capsys):
        path = tmp_path / "a.csp"
        run_cli(["gen", "--n", "20", "--forced", "--seed", "1",
                 "--out", str(path)], capsys)
        search = ["--in", str(path), "--max-iters", "100000"]
        code, out, _ = run_cli(["bench", *search, "--runs", "4", "--base-seed", "0"], capsys)
        assert code == 0
        summary = json.loads(out)
        stats = [json.loads(run_cli(["solve", *search, "--seed", str(seed)], capsys)[1])["stats"]
                 for seed in range(4)]
        iterations = sum(s["iterations"] for s in stats)
        assert summary["expansion_rate"] == sum(s["expansions"] for s in stats) / iterations
        assert summary["worsening_rate"] == sum(s["worsening"] for s in stats) / iterations
        assert summary["expansion_rate"] > 0 and summary["worsening_rate"] > 0

    def test_all_runs_failing_still_reports(self, tmp_path, capsys):
        path = tmp_path / "a.csp"
        run_cli(["gen", "--n", "20", "--forced", "--seed", "9",
                 "--out", str(path)], capsys)
        code, out, _ = run_cli(
            ["bench", "--in", str(path), "--runs", "3", "--base-seed", "2",
             "--max-iters", "5"], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["successes"] == 0 and "exponential_fit" not in summary
        assert summary["best_conflicts"]["min"] > 0

    def test_zero_iteration_successes_still_report(self, tmp_path, capsys):
        # greedy init already solves every run, so the RTD has mean 0
        path = tmp_path / "a.csp"
        path.write_text("p bcsp 3 2 1\nk 0 1 1\nf 0 0\n")
        rtd_out = tmp_path / "rtd.csv"
        hist_out = tmp_path / "hist.csv"
        summary_out = tmp_path / "summary.json"
        code, _, err = run_cli(
            ["bench", "--in", str(path), "--runs", "4", "--base-seed", "1",
             "--rtd-out", str(rtd_out), "--hist-out", str(hist_out),
             "--summary-out", str(summary_out)], capsys)
        assert code == 0, err
        summary = json.loads(summary_out.read_text())
        assert summary["successes"] == 4 and summary["total_iterations"] == 0
        assert "exponential_fit" not in summary
        with open(rtd_out) as f:
            rows = list(csv.reader(f))
        assert rows == [["iterations", "ecdf", "fitted"]] + [
            ["0", f"{k / 4:.9f}", ""] for k in range(1, 5)]
        with open(hist_out) as f:
            assert list(csv.reader(f)) == [["conflicts", "runs"], ["0", "4"]]

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_workers_below_one_exit_1(self, tmp_path, capsys, workers):
        path = tmp_path / "a.csp"
        path.write_text("p bcsp 3 2 1\nk 0 1 1\nf 0 0\n")
        code, out, err = run_cli(
            ["bench", "--in", str(path), "--runs", "2", "--base-seed", "1",
             "--workers", workers], capsys)
        assert code == 1 and out == ""
        assert err == f"error: need at least one worker, got {workers}\n"

    def test_workers_at_most_one_per_usable_cpu(self, tmp_path, capsys, monkeypatch):
        # threads when the kernel is loaded, processes otherwise; each pool
        # here records its size and maps serially, so no worker starts
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        path = tmp_path / "a.csp"
        path.write_text("p bcsp 3 2 1\nk 0 1 1\nf 0 0\n")
        search = ["bench", "--in", str(path), "--runs", "5000", "--base-seed", "1"]
        code, serial, _ = run_cli(search, capsys)
        assert code == 0
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        code, pooled, _ = run_cli([*search, "--workers", "5000"], capsys)
        assert code == 0
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
        assert sizes == ([cpus] if cpus > 1 else [])
        serial, pooled = json.loads(serial), json.loads(pooled)
        del serial["mean_time"], pooled["mean_time"]
        assert pooled == serial

    def test_summary_to_stdout_by_default(self, tmp_path, capsys):
        path = tmp_path / "a.csp"
        run_cli(["gen", "--n", "10", "--forced", "--seed", "8",
                 "--out", str(path)], capsys)
        code, out, _ = run_cli(
            ["bench", "--in", str(path), "--runs", "4", "--base-seed", "1",
             "--max-iters", "50000"], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["success_rate"] == 1.0


class TestConvertRecover:
    def test_round_trip_through_mis(self, tmp_path, capsys):
        csp_path = tmp_path / "a.csp"
        run_cli(["gen", "--n", "10", "--seed", "11", "--out", str(csp_path)],
                capsys)
        inst, _ = loads_csp(csp_path.read_text())
        d = inst.d
        mis_path = tmp_path / "a.mis"
        code, _, _ = run_cli(
            ["convert", "--to-mis", "--in", str(csp_path),
             "--out", str(mis_path)], capsys)
        assert code == 0
        graph = parse_dimacs(mis_path.read_text())
        assert graph.num_vertices == inst.n * d

        back_path = tmp_path / "b.csp"
        code, _, _ = run_cli(
            ["convert", "--to-csp", "--block-size", str(d),
             "--in", str(mis_path), "--out", str(back_path)], capsys)
        assert code == 0
        recovered, _ = loads_csp(back_path.read_text())
        assert recovered.n == inst.n and recovered.d == d

    def test_recover_alias(self, tmp_path, capsys):
        csp_path = tmp_path / "a.csp"
        run_cli(["gen", "--n", "8", "--seed", "12", "--out", str(csp_path)],
                capsys)
        inst, _ = loads_csp(csp_path.read_text())
        mis_path = tmp_path / "a.mis"
        run_cli(["convert", "--to-mis", "--in", str(csp_path),
                 "--out", str(mis_path)], capsys)
        code, out, _ = run_cli(
            ["recover", str(mis_path), "--d", str(inst.d)], capsys)
        assert code == 0
        recovered, _ = loads_csp(out)
        assert recovered.n == inst.n

    def test_paths_with_line_breaks_round_trip(self, tmp_path, capsys):
        # a path lands in a comment; each of its lines must stay a comment line
        csp_path, mis_path = tmp_path / "x\ny.csp", tmp_path / "g\rz.mis"
        run_cli(["gen", "--n", "10", "--forced", "--seed", "1", "--out", str(csp_path)],
                capsys)
        inst, _ = loads_csp(csp_path.read_text())
        code, _, _ = run_cli(["convert", "--to-mis", "--in", str(csp_path),
                              "--out", str(mis_path)], capsys)
        assert code == 0
        code, out, err = run_cli(["recover", str(mis_path), "--d", str(inst.d)], capsys)
        assert code == 0 and err == ""
        assert loads_csp(out)[0] == mis_to_csp(csp_to_mis(inst), inst.d)

    def test_to_csp_requires_block_size(self, tmp_path, capsys):
        mis_path = tmp_path / "a.mis"
        mis_path.write_text("p edge 2 1\ne 1 2\n")
        code, _, err = run_cli(
            ["convert", "--to-csp", "--in", str(mis_path)], capsys)
        assert code == 1 and "block-size" in err

    def test_block_size_checked_before_reading_graph(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["convert", "--to-csp", "--in", str(tmp_path / "missing.mis")],
            capsys)
        assert code == 1 and "block-size" in err

    def test_structure_error_exit_1(self, tmp_path, capsys):
        mis_path = tmp_path / "a.mis"
        mis_path.write_text("p edge 4 1\ne 1 3\n")  # blocks of 2 not cliques
        code, _, err = run_cli(
            ["convert", "--to-csp", "--block-size", "2",
             "--in", str(mis_path), "--out", str(tmp_path / "x.csp")], capsys)
        assert code == 1 and ("not a" in err or "clique" in err)


class TestBytesInput:
    @pytest.mark.parametrize("name", BYTE_VARIANTS)
    def test_commands_match_a_text_mode_read(self, tmp_path, capsys, monkeypatch, name):
        # each file is read once as bytes; the same stdout, stderr, exit
        # status and warnings as when it was read in text mode, which
        # decoded it as UTF-8 and turned CRLF and lone CR into LF
        instance, hidden = generate_forced(phase_transition_params(20), 1)
        csp, mis = tmp_path / "a.csp", tmp_path / "a.mis"
        csp.write_bytes(byte_variant(dumps_csp(instance, hidden).encode(), b"f", name))
        mis.write_bytes(byte_variant(emit_dimacs(csp_to_mis(instance)).encode(), b"e", name))
        d = str(instance.d)
        commands = [["solve", "--in", str(csp), "--seed", "0", "--max-iters", "2000"],
                    ["convert", "--to-mis", "--in", str(csp)],
                    ["recover", str(mis), "--d", d],
                    ["convert", "--to-csp", "--block-size", d, "--in", str(mis)]]

        def outputs():
            found = []
            for argv in commands:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code, out, err = run_cli(argv, capsys)
                assert err.count("\n") == (code == 1)  # one line when it fails
                out = re.sub(r'\n *"wall_time": [^\n]*', "", out)
                found.append((code, out, err, [str(w.message) for w in caught]))
            return found

        read = outputs()
        monkeypatch.setattr(cli, "_read_bytes", lambda path: Path(path).read_text("utf-8"))
        assert read == outputs()


class TestHostileHeaders:
    @pytest.mark.parametrize("header", ["p bcsp 2 50000 1", "p bcsp 1000000000 2 0"])
    def test_solve_refuses_oversized_header(self, tmp_path, capsys, header):
        path = tmp_path / "hostile.csp"
        path.write_text(header + "\nk 0 1 1\nf 0 0\n")
        code, out, err = run_cli(["solve", "--in", str(path), "--seed", "0"], capsys)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "too large" in err

    def test_recover_refuses_oversized_graph(self, tmp_path, capsys):
        path = tmp_path / "hostile.mis"
        path.write_text("p edge 10000000000 0\n")
        code, _, err = run_cli(["recover", str(path), "--d", "1"], capsys)
        assert code == 1 and err.count("\n") == 1 and "too large" in err

    def test_recover_refuses_a_graph_beyond_the_vertex_cap(self, tmp_path, capsys):
        # the 'e' line names the last vertex: only the header is beyond the cap
        path = tmp_path / "hostile.mis"
        path.write_text(f"p edge {2**31} 1\ne 1 {2**31}\n")
        code, out, err = run_cli(["recover", str(path), "--d", "1"], capsys)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert "line 1: graph too large: 2147483648 vertices exceed the cap of 2147483647" in err

    @pytest.mark.parametrize("text, message", [
        (f"p edge {10**30} 0\n", "line 1: graph too large"),
        ("p edge 4 1\ne 1 99999999999999999999999999\n", "line 2: vertex in"),
    ])
    def test_recover_refuses_vertices_beyond_int64(self, tmp_path, capsys, text, message):
        path = tmp_path / "hostile.mis"
        path.write_text(text)
        code, _, err = run_cli(["recover", str(path), "--d", "1"], capsys)
        assert code == 1 and err.count("\n") == 1 and message in err


class TestHostileGen:
    @pytest.mark.parametrize("flags, message", [
        (["--n", "1" + "0" * 399], "finite"),            # n^alpha overflows a float
        (["--n", "20", "--alpha", "1e300"], "finite"),   # d overflows
        (["--n", "20", "--r", "1e308"], "finite"),       # m is infinite
        (["--n", "1000"], "too large"),                  # 2.4 GB of tables, 302M pairs
        (["--n", "400"], "disallowed pairs"),            # passes check_size, 24.4M pairs
    ])
    def test_refused_before_any_draw(self, capsys, monkeypatch, flags, message):
        def no_draw(rng, n):
            raise AssertionError("the sampler drew before refusing")
        monkeypatch.setattr("rbcsp.modelrb._draw_pair", no_draw)
        # no --seed: a second stderr line would mean an entropy seed was drawn
        code, out, err = run_cli(["gen", *flags], capsys)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and message in err


class TestLocale:
    def test_texts_are_utf8_in_the_c_locale(self, tmp_path):
        # recover puts the path it reads into a comment of the instance it
        # writes: café.dimacs as its UTF-8, and \xff.dimacs, whose byte is
        # not UTF-8, escaped.  Under the C locale with no UTF-8 mode the
        # recover → solve and convert chain exits 0 and writes the bytes a
        # UTF-8 run writes, and recover writes to stdout what it writes to
        # a file
        source = tmp_path / "a.csp"
        assert main(["gen", "--n", "12", "--forced", "--seed", "1", "--out", str(source)]) == 0
        d = loads_csp(source.read_text())[0].d
        env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
        env["PYTHONPATH"] = str(ROOT / "src")
        locales = {"c": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
                   "utf8": {"PYTHONUTF8": "1"}}
        written = {}
        for name, extra in locales.items():
            cwd = tmp_path / name
            cwd.mkdir()
            written[name] = []
            for path in ("café.dimacs".encode(), b"\xff.dimacs"):
                assert main(["convert", "--to-mis", "--in", str(source),
                             "--out", str(cwd / os.fsdecode(path))]) == 0
                outs = []
                for args in (["recover", path, "--d", str(d), "--out", "r.csp"],
                             ["recover", path, "--d", str(d)],
                             ["solve", "--in", "r.csp", "--seed", "0", "--max-iters", "10000"],
                             ["convert", "--to-mis", "--in", "r.csp", "--out", "r.mis"]):
                    result = subprocess.run([sys.executable, "-m", "rbcsp", *args], cwd=cwd,
                                            env={**env, **extra}, capture_output=True)
                    assert result.returncode == 0, (name, args, result.stderr)
                    outs.append(re.sub(rb'"wall_time": [^,]*', b"", result.stdout))
                csp = (cwd / "r.csp").read_bytes()
                assert outs[1] == csp  # recover's stdout
                written[name] += [csp, (cwd / "r.mis").read_bytes(), outs[2]]
        assert b"c recovered from caf\xc3\xa9.dimacs with" in written["c"][0]
        assert b"c recovered from \\xff.dimacs with" in written["c"][3]
        assert written["c"] == written["utf8"]

    def test_json_names_a_path_as_comments_do(self, tmp_path, capsys):
        # solve's record and bench's summary name the instance, and bench's
        # stderr line the summary file, as a comment names a path: a byte
        # that is not UTF-8 as the four characters \xff, never as a lone
        # surrogate; a UTF-8 path reads as itself
        for name, shown in ((b"\xff.csp", "\\xff.csp"), ("café.csp".encode(), "café.csp")):
            path = str(tmp_path / os.fsdecode(name))
            assert main(["gen", "--n", "8", "--forced", "--seed", "1", "--out", path]) == 0
            capsys.readouterr()
            code, out, _ = run_cli(["solve", "--in", path, "--seed", "0", "--max-iters", "10000"],
                                   capsys)
            assert code == 0
            assert json.loads(out)["instance"] == str(tmp_path / shown)
            summary = str(tmp_path / os.fsdecode(name.replace(b".csp", b".json")))
            code, out, err = run_cli(["bench", "--in", path, "--runs", "2", "--base-seed", "0",
                                      "--max-iters", "10000", "--summary-out", summary], capsys)
            assert code == 0 and out == ""
            assert err == f"wrote summary to {tmp_path / shown.replace('.csp', '.json')}\n"
            with open(summary, encoding="utf-8") as f:
                assert json.load(f)["instance"] == str(tmp_path / shown)


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "rbcsp", "--version"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "rbcsp" in result.stdout and "PCG64" in result.stdout


class TestReadme:
    """README's promises that can drift from the code it describes."""

    def test_every_example_command_parses(self):
        text = README.read_text()
        commands = [words[1:] for lang, body in FENCE.findall(text) if lang == "sh"
                    for line in body.replace("\\\n", " ").splitlines()
                    for words in [shlex.split(line, comments=True)] if words[:1] == ["rbcsp"]]
        assert {words[0] for words in commands} == {"gen", "solve", "bench", "convert", "recover"}
        parser = cli.build_parser()
        for words in commands:
            try:
                parser.parse_args(words)
            except SystemExit:
                pytest.fail(f"README's example does not parse: rbcsp {shlex.join(words)}")

    def test_section_references_name_headings(self):
        headings = set(re.findall(r"^#+ (.+?)\s*$", FENCE.sub("", README.read_text()), re.M))
        files = [ROOT / "pyproject.toml", *(ROOT / ".github").rglob("*.yml"),
                 *(ROOT / "src").rglob("*.py"), *(ROOT / "src").rglob("*.c"),
                 *(ROOT / "tests").rglob("*.py")]
        # [ ] keeps this line from reading as a reference itself
        cited = {(name, path.relative_to(ROOT).as_posix()) for path in files
                 for name in re.findall(r'README[ ]"([^"]+)"', path.read_text())}
        assert cited, "no file cites a README section"
        assert {(name, path) for name, path in cited if name not in headings} == set()

    def test_solve_schema_lists_the_record_keys(self):
        listed = re.search(r"`solve` JSON: `([^`]+)`", README.read_text()).group(1)
        keys = [(name, re.split(r",\s*", inner) if inner else None)
                for name, inner in re.findall(r"(\w+)(?:\{([^}]*)\})?", listed)]
        record = cli._record_json(run(CspInstance(2, 2), UlsaConfig(), 0), "a.csp")
        assert keys == [(name, list(value) if isinstance(value, dict) else None)
                        for name, value in record.items()]
