"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.obs import validate_chrome_trace


class TestJoinCommand:
    def test_basic_run(self, capsys):
        code = main([
            "join", "--algorithm", "c-rep", "--n", "200", "--space", "1000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "output tuples:" in out
        assert "simulated time:" in out
        assert "rectangles marked:" in out

    def test_range_join(self, capsys):
        code = main([
            "join", "--algorithm", "c-rep-l", "--n", "150",
            "--space", "1000", "--range-d", "30",
        ])
        assert code == 0
        assert "Ra(30)" in capsys.readouterr().out

    def test_four_relations(self, capsys):
        code = main([
            "join", "--algorithm", "cascade", "--n", "100",
            "--space", "1000", "--relations", "4",
        ])
        assert code == 0
        assert "R4" in capsys.readouterr().out

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["join", "--algorithm", "nope"])

    def test_kernel_auto_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["join", "--kernel", "auto"])
        assert err.value.code == 2
        assert "'numpy', 'python'" in capsys.readouterr().err

    def test_workers_below_one_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["join", "--executor", "thread", "--workers", "0"])
        assert err.value.code == 2
        assert "worker count must be an integer >= 1, got '0'" in capsys.readouterr().err


class TestTableCommands:
    def test_single_table(self, capsys):
        code = main(["table6", "--scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 6" in out
        assert "time c-rep" in out

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        code = main(["table9", "--scale", "0.05", "--output", str(target)])
        assert code == 0
        assert target.read_text().startswith("Table 9")

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestReportCommand:
    def test_writes_markdown(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["report", "--scale", "0.05", "--output", "EXP.md"])
        assert code == 0
        text = (tmp_path / "EXP.md").read_text()
        assert "# EXPERIMENTS" in text
        for n in range(2, 10):
            assert f"Table {n}" in text
        assert "wrote EXP.md" in capsys.readouterr().out


class TestObsFlags:
    def test_join_writes_trace_and_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "join", "--algorithm", "c-rep", "--n", "150", "--space", "1000",
            "--trace", str(trace_path), "--metrics", str(metrics_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote trace {trace_path}" in out
        assert f"wrote metrics {metrics_path}" in out
        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []
        metrics = json.loads(metrics_path.read_text())
        assert metrics["version"] == 1
        assert "c-rep" in metrics["runs"]
        assert metrics["runs"]["c-rep"]["jobs"]

    def test_join_verbose_prints_dashboard_and_skew(self, capsys):
        code = main([
            "join", "--algorithm", "c-rep", "--n", "150", "--space", "1000",
            "--verbose",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "reduce skew (max/mean):" in out
        assert "== c-rep:" in out
        assert "reduce input:" in out

    def test_table_writes_trace_and_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "table6", "--scale", "0.05",
            "--trace", str(trace_path), "--metrics", str(metrics_path),
        ])
        assert code == 0
        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []
        metrics = json.loads(metrics_path.read_text())
        assert "table6" in metrics["tables"]
        assert metrics["tables"]["table6"]["rows"]

    def test_table_verbose_prints_row_dashboards(self, capsys):
        code = main(["table6", "--scale", "0.05", "--verbose"])
        assert code == 0
        out = capsys.readouterr().out
        assert "### Table 6 row" in out
        assert "reduce input:" in out

    def test_report_has_no_obs_flags(self):
        with pytest.raises(SystemExit):
            main(["report", "--trace", "x.json"])


class TestQueryFlag:
    def test_explicit_query(self, capsys):
        code = main([
            "join", "--algorithm", "c-rep", "--n", "150", "--space", "1000",
            "--query", "A Ov B and B Ra(40) C",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "A Ov B and B Ra(40) C" in out

    def test_bad_query_clean_error(self, capsys):
        code = main(["join", "--query", "A Near B", "--n", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown predicate 'Near'" in err
        assert "Traceback" not in err


class TestFaultFlags:
    def _plan(self, tmp_path, plan):
        path = tmp_path / "plan.json"
        plan.dump(str(path))
        return str(path)

    def test_fault_plan_absorbed_within_max_attempts(self, tmp_path, capsys):
        from repro.mapreduce.faults import FaultPlan

        plan = FaultPlan().fail_task("map", 0, attempt=0, job=None)
        code = main([
            "join", "--algorithm", "c-rep", "--n", "200", "--space", "1000",
            "--max-attempts", "2", "--fault-plan", self._plan(tmp_path, plan),
            "--verbose",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "task attempts:" in out
        assert "failures" in out
        assert "faults:" in out  # the dashboard's recovery line

    def test_fault_plan_does_not_change_simulated_time(self, tmp_path, capsys):
        from repro.mapreduce.faults import FaultPlan

        args = ["join", "--algorithm", "c-rep", "--n", "200", "--space", "1000"]
        assert main(args) == 0
        baseline = capsys.readouterr().out
        plan = FaultPlan().fail_task("reduce", 0, attempt=0, job=None)
        assert main(args + [
            "--max-attempts", "3", "--fault-plan", self._plan(tmp_path, plan),
        ]) == 0
        chaotic = capsys.readouterr().out

        def line(out, prefix):
            return next(l for l in out.splitlines() if l.startswith(prefix))

        assert line(chaotic, "simulated time:") == line(baseline, "simulated time:")
        assert line(chaotic, "output tuples:") == line(baseline, "output tuples:")

    def test_exhausted_plan_is_a_clean_error(self, tmp_path, capsys):
        from repro.mapreduce.faults import FaultPlan

        plan = FaultPlan().fail_task("map", 0, attempt=None, job=None)
        code = main([
            "join", "--algorithm", "c-rep", "--n", "100", "--space", "1000",
            "--max-attempts", "2", "--fault-plan", self._plan(tmp_path, plan),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "failed 2 attempt(s)" in err
        assert "Traceback" not in err

    def test_resume_requires_dfs_root(self, capsys):
        code = main([
            "join", "--algorithm", "c-rep", "--n", "100", "--space", "1000",
            "--resume",
        ])
        assert code == 2
        assert "--dfs-root" in capsys.readouterr().err

    def test_speculate_flag_accepted(self, capsys):
        code = main([
            "join", "--algorithm", "c-rep", "--n", "100", "--space", "1000",
            "--speculate",
        ])
        assert code == 0

    def test_workers_fail_flag_absorbed(self, capsys):
        code = main([
            "join", "--algorithm", "c-rep", "--n", "200", "--space", "1000",
            "--workers", "4", "--max-attempts", "3",
            "--workers-fail", "w1@reduce:0,silent", "--verbose",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "workers: 1 lost" in out

    def test_workers_fail_merges_with_plan_file(self, tmp_path, capsys):
        from repro.mapreduce.faults import FaultPlan

        plan = FaultPlan().fail_task("map", 0, attempt=0, job=None)
        code = main([
            "join", "--algorithm", "c-rep", "--n", "200", "--space", "1000",
            "--workers", "4", "--max-attempts", "3",
            "--fault-plan", self._plan(tmp_path, plan),
            "--workers-fail", "w1@map:0:1", "--verbose",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "task attempts:" in out
        assert "workers:" in out

    def test_workers_fail_bad_syntax_is_clean_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([
                "join", "--algorithm", "c-rep", "--n", "100",
                "--workers-fail", "w1-reduce-0",
            ])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "NAME@PHASE:TASK" in stderr
        assert "Traceback" not in stderr

    def test_crash_then_resume_across_processes(self, tmp_path, capsys):
        """The full CLI resume story: a run crashes on job 2, a second
        invocation (fresh cluster, same --dfs-root) restores job 1 from
        the on-disk checkpoint and finishes the chain."""
        from repro.mapreduce.faults import FaultPlan

        root = str(tmp_path / "dfsroot")
        base = [
            "join", "--algorithm", "c-rep", "--n", "150", "--space", "1000",
            "--dfs-root", root,
        ]
        plan = FaultPlan().fail_task(
            "reduce", 0, attempt=None, job="controlled-replicate-join"
        )
        assert main(base + ["--fault-plan", self._plan(tmp_path, plan)]) == 2
        err = capsys.readouterr().err
        assert "controlled-replicate-join" in err

        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint: 1/2 job(s)" in out
        assert "output tuples:" in out

class TestMemoryFlags:
    BASE = ["join", "--algorithm", "c-rep", "--n", "200", "--space", "1000"]

    def test_memory_budget_reports_spills_only(self, capsys):
        assert main(self.BASE) == 0
        baseline = capsys.readouterr().out
        assert "spilled records:" not in baseline

        assert main(self.BASE + ["--memory-budget", "2k", "--verbose"]) == 0
        budgeted = capsys.readouterr().out
        assert "spilled records:" in budgeted
        assert "memory:" in budgeted  # the dashboard's memory line

        def line(out, prefix):
            return next(l for l in out.splitlines() if l.startswith(prefix))

        # Canonical results unchanged by the budget.
        assert line(budgeted, "simulated time:") == line(baseline, "simulated time:")
        assert line(budgeted, "output tuples:") == line(baseline, "output tuples:")

    def test_memory_budget_rejects_garbage(self, capsys):
        with pytest.raises(SystemExit):
            main(self.BASE + ["--memory-budget", "lots"])
        with pytest.raises(SystemExit):
            main(self.BASE + ["--memory-budget", "0"])

    def test_skipping_flags_quarantine_poison_record(self, tmp_path, capsys):
        from repro.mapreduce.faults import FaultPlan

        path = tmp_path / "plan.json"
        FaultPlan().poison_record(0, 3, job=None).dump(str(path))
        code = main(self.BASE + [
            "--fault-plan", str(path), "--max-attempts", "4",
            "--max-skipped-records", "2",
        ])
        assert code == 0
        assert "skipped records:" in capsys.readouterr().out

    def test_task_timeout_flag_accepted(self, capsys):
        code = main(self.BASE + ["--task-timeout", "30"])
        assert code == 0


class TestStorageFlags:
    BASE = ["join", "--algorithm", "c-rep", "--n", "200", "--space", "1000"]

    def test_replication_reports_locality_and_matches_baseline(self, capsys):
        assert main(self.BASE) == 0
        baseline = capsys.readouterr().out
        assert "map locality:" not in baseline

        assert main(self.BASE + ["--replication", "2", "--workers", "4"]) == 0
        replicated = capsys.readouterr().out
        assert "map locality:" in replicated

        def line(out, prefix):
            return next(l for l in out.splitlines() if l.startswith(prefix))

        # Canonical results unchanged by the storage plane.
        assert line(replicated, "simulated time:") == line(
            baseline, "simulated time:"
        )
        assert line(replicated, "output tuples:") == line(
            baseline, "output tuples:"
        )

    def test_replication_survives_worker_kill(self, capsys):
        code = main(self.BASE + [
            "--replication", "2", "--workers", "4", "--max-attempts", "3",
            "--workers-fail", "w1@map:1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "replica(s) lost" in out
        assert "re-replicated" in out

    def test_fsck_healthy_store(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        assert main(self.BASE + [
            "--dfs-root", root, "--replication", "2", "--workers", "4",
        ]) == 0
        capsys.readouterr()

        assert main(["fsck", "--dfs-root", root]) == 0
        out = capsys.readouterr().out
        assert "HEALTHY" in out

    def test_fsck_detect_repair_cycle(self, tmp_path, capsys):
        root = tmp_path / "store"
        assert main(self.BASE + [
            "--dfs-root", str(root), "--replication", "2", "--workers", "4",
        ]) == 0
        capsys.readouterr()
        replica = sorted((root / "_blocks").rglob("b-*"))[0]
        replica.write_text("#garbage\n", encoding="utf-8")

        assert main(["fsck", "--dfs-root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "corrupt:" in out

        assert main(["fsck", "--dfs-root", str(root), "--repair"]) == 0
        assert "repaired" in capsys.readouterr().out
        assert main(["fsck", "--dfs-root", str(root)]) == 0

    def test_fsck_refuses_untagged_placement_map(self, tmp_path, capsys):
        root = tmp_path / "store"
        assert main(self.BASE + [
            "--dfs-root", str(root), "--replication", "2", "--workers", "4",
        ]) == 0
        capsys.readouterr()
        placement = root / "_blocks" / "placement.json"
        data = json.loads(placement.read_text(encoding="utf-8"))
        del data["checksum"]
        placement.write_text(json.dumps(data) + "\n", encoding="utf-8")

        assert main(["fsck", "--dfs-root", str(root)]) != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = captured.err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith("error: ")
        assert "CRC32C" in errors[0] and "re-stage" in errors[0]

    def test_fsck_empty_root_is_healthy(self, tmp_path, capsys):
        assert main(["fsck", "--dfs-root", str(tmp_path / "nothing")]) == 0

    def test_fsck_reports_data_loss(self, tmp_path, capsys):
        root = tmp_path / "store"
        assert main(self.BASE + [
            "--dfs-root", str(root), "--replication", "2", "--workers", "4",
        ]) == 0
        capsys.readouterr()
        # Destroy every replica of one block: unrecoverable.
        victims = sorted((root / "_blocks").rglob("b-00000"))
        target = victims[0].parent.name
        for v in victims:
            if v.parent.name == target:
                v.write_text("#garbage\n", encoding="utf-8")

        assert main(["fsck", "--dfs-root", str(root)]) == 2
        out = capsys.readouterr().out
        assert "data loss" in out
        assert "CORRUPT" in out
