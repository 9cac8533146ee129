"""Tests for the CLI and the DOT/Verilog exporters."""

from __future__ import annotations

import pytest

from repro.aig import Aig, read_aiger, write_aag
from repro.aig.export import to_dot, to_verilog
from repro.cli import main

from conftest import random_aig


@pytest.fixture
def circuit_file(tmp_path):
    aig = random_aig(num_pis=5, num_nodes=40, num_pos=4, seed=3)
    path = tmp_path / "c.aag"
    write_aag(aig, path)
    return str(path)


class TestCli:
    def test_stats(self, circuit_file, capsys):
        assert main(["stats", circuit_file]) == 0
        out = capsys.readouterr().out
        assert "pis=5" in out and "ands=" in out

    def test_rewrite_roundtrip(self, circuit_file, tmp_path, capsys):
        out_path = str(tmp_path / "out.aag")
        code = main([
            "rewrite", circuit_file, "-o", out_path,
            "--engine", "dacpara", "--workers", "4", "--verify",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "equivalence" in out and "OK" in out
        optimized = read_aiger(out_path)
        original = read_aiger(circuit_file)
        assert optimized.num_ands <= original.num_ands

    def test_flow(self, circuit_file, tmp_path, capsys):
        out_path = str(tmp_path / "flow.aag")
        code = main([
            "flow", circuit_file, "-o", out_path,
            "--script", "compress", "--workers", "2", "--verify",
        ])
        assert code == 0
        assert "input" in capsys.readouterr().out

    def test_cec_equivalent(self, circuit_file, capsys):
        assert main(["cec", circuit_file, circuit_file]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_cec_inequivalent(self, circuit_file, tmp_path, capsys):
        aig = read_aiger(circuit_file)
        aig.set_po(0, aig.po_lit(0) ^ 1)
        other = tmp_path / "neg.aag"
        write_aag(aig, other)
        assert main(["cec", circuit_file, str(other)]) == 1
        assert "NOT EQUIVALENT" in capsys.readouterr().out

    def test_gen(self, tmp_path, capsys):
        out_path = str(tmp_path / "mult.aag")
        assert main(["gen", "mult", "-o", out_path, "--base"]) == 0
        aig = read_aiger(out_path)
        assert aig.num_ands > 0

    def test_gen_unknown(self, tmp_path):
        assert main(["gen", "adder99", "-o", str(tmp_path / "x.aag")]) == 1

    def test_gen_mtm(self, tmp_path):
        out_path = str(tmp_path / "sixteen.aig")
        assert main(["gen", "sixteen", "-o", out_path]) == 0
        assert read_aiger(out_path).num_ands > 100


class TestCliErrors:
    """Named errors and OS errors end in one stderr line and exit 2."""

    def _one_error_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro: error: ")
        assert "Traceback" not in captured.err
        return lines[0]

    def test_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.aag"
        bad.write_text("xyz 1 2\n")
        assert "xyz" in self._one_error_line(["stats", str(bad)], capsys)

    def test_missing_input(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.aag")
        assert "nope.aag" in self._one_error_line(["stats", missing], capsys)

    def test_config_error(self, circuit_file, capsys):
        line = self._one_error_line(
            ["rewrite", circuit_file, "--jobs", "0"], capsys
        )
        assert "jobs" in line


class TestExport:
    def test_dot_structure(self, small_aig):
        text = to_dot(small_aig)
        assert text.startswith("digraph")
        assert text.count("triangle") >= small_aig.num_pis
        assert "->" in text
        assert text.rstrip().endswith("}")

    def test_dot_complement_edges_dashed(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        aig.add_po(aig.and_(a ^ 1, b))
        assert "dashed" in to_dot(aig)

    def test_verilog_structure(self, small_aig):
        text = to_verilog(small_aig, module_name="m")
        assert text.startswith("module m")
        assert text.rstrip().endswith("endmodule")
        assert text.count("assign") == small_aig.num_ands + small_aig.num_pos
        for k in range(small_aig.num_pis):
            assert f"input i{k};" in text

    def test_verilog_semantics_by_eval(self, small_aig):
        """Interpret the emitted assigns and compare with simulation."""
        from repro.aig import simulate_pattern

        text = to_verilog(small_aig)
        assigns = {}
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("assign"):
                lhs, rhs = line[len("assign"):].split("=")
                assigns[lhs.strip()] = rhs.strip().rstrip(";")

        def eval_expr(expr, env):
            if "&" in expr:
                l, r = expr.split("&")
                return eval_expr(l.strip(), env) & eval_expr(r.strip(), env)
            if expr.startswith("~"):
                return 1 - eval_expr(expr[1:], env)
            if expr == "1'b0":
                return 0
            if expr == "1'b1":
                return 1
            return env[expr]

        for pattern in range(1 << small_aig.num_pis):
            bits = [(pattern >> i) & 1 for i in range(small_aig.num_pis)]
            env = {f"i{k}": bit for k, bit in enumerate(bits)}
            for name in sorted(assigns, key=lambda n: (n[0] != "n", n)):
                pass
            # evaluate wires in declaration order (topological)
            for line in text.splitlines():
                line = line.strip()
                if line.startswith("assign"):
                    lhs, rhs = line[len("assign"):].split("=")
                    env[lhs.strip()] = eval_expr(rhs.strip().rstrip(";"), env)
            expected = simulate_pattern(small_aig, bits)
            got = [env[f"o{k}"] for k in range(small_aig.num_pos)]
            assert got == expected


class TestCliExecutorFlags:
    def test_rewrite_with_process_executor(self, circuit_file, tmp_path, capsys):
        out_path = str(tmp_path / "proc.aag")
        code = main([
            "rewrite", circuit_file, "-o", out_path,
            "--executor", "process", "--jobs", "1", "--verify",
            "--shards", "2", "--shard-min-nodes", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert read_aiger(out_path).num_ands <= read_aiger(circuit_file).num_ands

    def test_process_without_shards_warns(self, circuit_file, tmp_path):
        with pytest.warns(UserWarning, match="jobs is unused"):
            assert main(["rewrite", circuit_file,
                         "-o", str(tmp_path / "proc.aag"),
                         "--executor", "process", "--jobs", "2"]) == 0

    def test_rewrite_executor_matches_simulated(self, circuit_file, tmp_path):
        sim_path = str(tmp_path / "sim.aag")
        proc_path = str(tmp_path / "proc.aag")
        sharded = ["--shards", "2", "--shard-min-nodes", "1"]
        assert main(["rewrite", circuit_file, "-o", sim_path,
                     "--executor", "simulated", *sharded]) == 0
        assert main(["rewrite", circuit_file, "-o", proc_path,
                     "--executor", "process", "--jobs", "1", *sharded]) == 0
        sim = read_aiger(sim_path)
        proc = read_aiger(proc_path)
        assert sim.num_ands == proc.num_ands
        assert [sim.fanins(v) for v in sim.topo_ands()] == \
               [proc.fanins(v) for v in proc.topo_ands()]

    def test_rewrite_rejects_unknown_executor(self, circuit_file):
        with pytest.raises(SystemExit):
            main(["rewrite", circuit_file, "--executor", "quantum"])

    def test_executor_flag_unsupported_engine(self, circuit_file, capsys):
        code = main([
            "rewrite", circuit_file, "--engine", "abc",
            "--executor", "process",
        ])
        err = capsys.readouterr().err
        if code == 0:
            # engine carries a config; nothing to assert
            assert err == ""
        else:
            assert code == 1
            assert "--executor" in err
