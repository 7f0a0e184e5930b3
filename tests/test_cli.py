"""Tests for the command-line interface."""

import pytest

from repro.cli import main

PLATFORM = ["--dram-mb", "64"]
SCALED = [*PLATFORM, "--scale", "0.02"]


class TestCli:
    def test_info(self, capsys):
        assert main(["info", *PLATFORM]) == 0
        out = capsys.readouterr().out
        assert "hypernel" in out
        assert "stage2" in out

    def test_table2(self, capsys):
        assert main(["table2", *SCALED, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "word-granularity" in out
        assert "overall word/page ratio" in out

    def test_table2_parallel_jobs(self, capsys):
        assert main(["table2", *SCALED, "--no-cache", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "overall word/page ratio" in out

    def test_table2_cache_round_trip(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["table2", *SCALED]) == 0
        cold = capsys.readouterr().out
        assert list(tmp_path.glob("*.json")), "cold run must populate the cache"
        assert main(["table2", *SCALED]) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_attacks(self, capsys):
        # Every scenario, in order, with its exact verdict per system:
        # a dropped, reordered or re-judged scenario fails here.
        assert main(["attacks", *PLATFORM]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("  ")]
        assert lines == [
            "  cred_escalation    SILENT SUCCESS",
            "  dentry_hijack      SILENT SUCCESS",
            "  pgtable_tamper     SILENT SUCCESS",
            "  ttbr_switch        SILENT SUCCESS",
            "  mmu_disable        SILENT SUCCESS",
            "  hypercall_abuse    SILENT SUCCESS",
            "  atra               SILENT SUCCESS",
            "  dma_secure_write   SILENT SUCCESS",
            "  cred_escalation    detected",
            "  dentry_hijack      detected",
            "  pgtable_tamper     BLOCKED",
            "  ttbr_switch        BLOCKED",
            "  mmu_disable        BLOCKED",
            "  hypercall_abuse    BLOCKED",
            "  atra               BLOCKED",
            "  dma_secure_write   detected",
        ]

    def test_audit(self, capsys):
        assert main(["audit", *SCALED]) == 0
        out = capsys.readouterr().out
        assert "audit clean" in out

    def test_table1_rejects_scale(self, capsys):
        # table1 runs fixed LMbench op counts; it must not silently
        # accept (and drop) a workload scale factor.
        with pytest.raises(SystemExit):
            main(["table1", *PLATFORM, "--scale", "0.02"])
        assert "--scale" in capsys.readouterr().err

    def test_table1_advertises_runner_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--jobs" in out
        assert "--no-cache" in out

    def test_table2_jobs2_runs_on_the_pool(self, capsys, monkeypatch):
        from repro.tools import runner

        pools = []
        real_factory = runner._default_executor_factory
        monkeypatch.setattr(runner, "_default_executor_factory",
                            lambda jobs: pools.append(jobs)
                            or real_factory(jobs))
        assert main(["table2", *SCALED, "--no-cache", "--jobs", "2"]) == 0
        assert "overall word/page ratio" in capsys.readouterr().out
        assert pools == [2]

    @staticmethod
    def _spy_pools(monkeypatch, cpus):
        """Pretend the host has ``cpus`` CPUs; record every pool size."""
        from repro.tools import runner

        pools = []
        real_factory = runner._default_executor_factory
        monkeypatch.setattr(runner, "available_cpus", lambda: cpus)
        monkeypatch.setattr(runner, "_default_executor_factory",
                            lambda jobs: pools.append(jobs)
                            or real_factory(jobs))
        return pools

    def test_default_jobs_pools_table2_on_every_cpu(self, capsys,
                                                    monkeypatch):
        pools = self._spy_pools(monkeypatch, cpus=2)
        assert main(["table2", *SCALED, "--no-cache"]) == 0
        assert "overall word/page ratio" in capsys.readouterr().out
        assert pools == [2]

    def test_default_jobs_pools_table1_capped_at_cpus(self, capsys,
                                                      monkeypatch):
        # Three cells, two CPUs: one pool of two workers.
        pools = self._spy_pools(monkeypatch, cpus=2)
        assert main(["table1", *PLATFORM, "--no-cache"]) == 0
        assert "fork+exit" in capsys.readouterr().out
        assert pools == [2]

    def test_default_jobs_on_one_cpu_runs_serially(self, capsys,
                                                   monkeypatch):
        pools = self._spy_pools(monkeypatch, cpus=1)
        assert main(["table2", *SCALED, "--no-cache"]) == 0
        assert "overall word/page ratio" in capsys.readouterr().out
        assert pools == []

    def test_unusable_cache_directory_keeps_the_results(
            self, capsys, tmp_path, monkeypatch):
        # The cache path is a regular file: every store fails, but the
        # computed table is still printed and the run exits 0, with one
        # warning naming the directory and the error.
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker))
        assert main(["table2", *SCALED, "--jobs", "1"]) == 0
        captured = capsys.readouterr()
        assert "overall word/page ratio" in captured.out
        warnings = captured.err.splitlines()
        assert len(warnings) == 1
        assert str(blocker) in warnings[0]
        assert "File exists" in warnings[0]
        assert blocker.read_text() == ""
        assert list(tmp_path.iterdir()) == [blocker]

    def test_default_jobs_on_a_warm_cache_starts_no_pool(
            self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["table2", *SCALED, "--jobs", "1"]) == 0
        cold = capsys.readouterr().out
        pools = self._spy_pools(monkeypatch, cpus=2)
        assert main(["table2", *SCALED]) == 0
        assert capsys.readouterr().out == cold
        assert pools == []

    def test_explicit_jobs1_runs_serially_on_many_cpus(self, capsys,
                                                       monkeypatch):
        pools = self._spy_pools(monkeypatch, cpus=2)
        assert main(["table2", *SCALED, "--no-cache", "--jobs", "1"]) == 0
        assert "overall word/page ratio" in capsys.readouterr().out
        assert pools == []

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_is_a_usage_error(self, monkeypatch, capsys,
                                               jobs):
        from repro import cli

        ran = []
        _, installers = cli._COMMANDS["table2"]
        monkeypatch.setitem(cli._COMMANDS, "table2",
                            (lambda args: ran.append(args) or 0, installers))
        with pytest.raises(SystemExit) as excinfo:
            main(["table2", "--jobs", jobs])
        assert excinfo.value.code == 2 and ran == []
        assert "argument --jobs" in capsys.readouterr().err

    def test_backend_rejects_unknown_choice(self, capsys):
        with pytest.raises(SystemExit):
            main(["table2", *SCALED, "--backend", "warpdrive"])
        assert "--backend" in capsys.readouterr().err

    @staticmethod
    def _assert_usage_error(monkeypatch, capsys, argv, message):
        """``argv`` exits 2 with ``message`` on stderr, and the command
        itself never runs."""
        from repro import cli

        command = argv[0]
        ran = []
        _, installers = cli._COMMANDS[command]
        monkeypatch.setitem(cli._COMMANDS, command,
                            (lambda args: ran.append(args) or 0, installers))
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2 and ran == []
        assert message in capsys.readouterr().err

    def test_removed_backend_flag_is_a_usage_error(self, monkeypatch, capsys):
        # --jobs alone picks serial or pool; a script still passing the
        # removed --backend must fail loudly, not be silently accepted.
        self._assert_usage_error(monkeypatch, capsys,
                                 ["table1", "--backend", "pool"],
                                 "unrecognized arguments: --backend pool")

    @pytest.mark.parametrize("command",
                             ["table1", "figure6", "table2", "report"])
    def test_removed_warm_start_flag_is_a_usage_error(self, monkeypatch,
                                                      capsys, command):
        # Every cell boots its system; --warm-start is gone.
        self._assert_usage_error(monkeypatch, capsys,
                                 [command, "--warm-start"],
                                 "unrecognized arguments: --warm-start")

    def test_removed_snapshot_restore_is_a_usage_error(self, capsys):
        # Audit evidence stays in memory: there is no snapshot file to
        # restore, write, inspect or diff, so the whole verb is gone.
        for argv in (["snapshot", "restore", "img.snap"],
                     ["snapshot", "save", "x"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "invalid choice: 'snapshot'" in capsys.readouterr().err

    def test_removed_audit_snapshot_flag_is_a_usage_error(self, monkeypatch,
                                                          capsys):
        # `audit` checks both channels on the machine it builds.
        self._assert_usage_error(monkeypatch, capsys,
                                 ["audit", "--snapshot", "x"],
                                 "unrecognized arguments: --snapshot x")

    def test_removed_fuzz_jsonl_flag_is_a_usage_error(self, monkeypatch,
                                                      capsys):
        # `fuzz` exits 1 on every count the integrity record carried.
        self._assert_usage_error(monkeypatch, capsys,
                                 ["fuzz", "--jsonl", "fuzz.jsonl"],
                                 "unrecognized arguments: --jsonl fuzz.jsonl")

    def test_removed_metrics_json_flag_is_a_usage_error(self, monkeypatch,
                                                        capsys):
        # No gate, CI step or harness read the JSONL export.
        self._assert_usage_error(monkeypatch, capsys,
                                 ["metrics", "--json", "x"],
                                 "unrecognized arguments: --json x")

    @pytest.mark.parametrize("argv,message", [
        (["info", "--dram-mb", "0"], "must be at least 1, got 0"),
        (["info", "--dram-mb", "-5"], "must be at least 1, got -5"),
        (["table2", "--scale", "0"], "must be a positive number, got 0"),
        (["table2", "--scale", "-1"], "must be a positive number, got -1"),
        (["table2", "--scale", "nan"], "must be a positive number, got nan"),
        (["fuzz", "--steps", "0"], "must be at least 1, got 0"),
        (["fuzz", "--max-examples", "0"], "must be at least 1, got 0"),
    ])
    def test_nonpositive_number_is_a_usage_error(self, monkeypatch, capsys,
                                                 argv, message):
        # Rejected at parse time, naming the option and the value,
        # before any machine is built.
        self._assert_usage_error(monkeypatch, capsys, argv,
                                 f"argument {argv[1]}: {message}")

    @pytest.mark.parametrize("command", ["info", "table1", "attacks"])
    @pytest.mark.parametrize("dram_mb", ["1", "40"])
    def test_dram_too_small_to_boot_is_a_usage_error(self, monkeypatch,
                                                     capsys, command, dram_mb):
        # The kernel image and the secure region leave no page to
        # allocate: rejected at parse time with the smallest size that
        # boots, instead of a ConfigurationError traceback.
        self._assert_usage_error(
            monkeypatch, capsys, [command, "--dram-mb", dram_mb],
            f"argument --dram-mb: {dram_mb} MB is too small to boot; "
            "the smallest size that boots is 41 MB")

    def test_smallest_bootable_dram_boots(self, capsys):
        assert main(["info", "--dram-mb", "41"]) == 0
        assert "DRAM: 41 MB" in capsys.readouterr().out

    @staticmethod
    def _spy_run_fuzz(monkeypatch):
        """Replace ``run_fuzz`` with a recorder of (profile, examples)."""
        from repro.security.fuzz import machine

        calls = []

        def run_fuzz(profile, seed, max_examples, steps):
            calls.append((profile, max_examples))
            return {"examples": max_examples, "ops": max_examples}

        monkeypatch.setattr(machine, "run_fuzz", run_fuzz)
        return calls

    @pytest.mark.parametrize("argv,shares", [
        (["--max-examples", "10"], [("section", 5), ("page", 5)]),
        (["--max-examples", "3"], [("section", 2), ("page", 1)]),
        (["--max-examples", "2"], [("section", 1), ("page", 1)]),
        (["--max-examples", "1", "--profile", "page"], [("page", 1)]),
    ])
    def test_fuzz_max_examples_is_the_total(self, monkeypatch, capsys, argv,
                                            shares):
        # The profiles' shares add up to --max-examples; the earlier
        # profile takes the remainder.
        calls = self._spy_run_fuzz(monkeypatch)
        assert main(["fuzz", *argv]) == 0
        assert calls == shares
        out = capsys.readouterr().out
        for profile, share in shares:
            assert f"fuzzing {profile!r} profile: {share} examples" in out

    def test_fuzz_fewer_examples_than_profiles_is_a_usage_error(
            self, monkeypatch, capsys):
        calls = self._spy_run_fuzz(monkeypatch)
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "--max-examples", "1"])
        assert excinfo.value.code == 2 and calls == []
        assert ("argument --max-examples: 1 is fewer than the 2 selected "
                "profiles; the minimum is 2") in capsys.readouterr().err

    def test_removed_metrics_snapshot_flag_is_a_usage_error(self, monkeypatch,
                                                            capsys):
        self._assert_usage_error(monkeypatch, capsys,
                                 ["metrics", "--snapshot", "img.snap"],
                                 "unrecognized arguments: --snapshot img.snap")

    @pytest.mark.parametrize("command",
                             ["table1", "figure6", "table2", "report"])
    def test_removed_macroops_flag_is_a_usage_error(self, monkeypatch,
                                                    capsys, command):
        # LMbench loops always run plainly; --no-macroops is gone.
        self._assert_usage_error(monkeypatch, capsys,
                                 [command, "--no-macroops"],
                                 "unrecognized arguments: --no-macroops")

    @pytest.mark.parametrize("command",
                             ["table1", "figure6", "table2", "report",
                              "metrics"])
    def test_unknown_waive_name_is_a_usage_error(self, monkeypatch, capsys,
                                                 command):
        # A mistyped check name fails at parse time, before any cell
        # runs, and the message lists the checks that can be waived.
        self._assert_usage_error(
            monkeypatch, capsys, [command, "--waive", "nope.nope"],
            "unknown integrity check 'nope.nope'; known checks: "
            "mbm_fifo.overrun, mbm_fifo.dropped, mbm_ring.overflow_drops, "
            "mbm_decision.lost_events, mbm.writeback_hazards")

    @pytest.mark.parametrize("argv", [
        ["table1", "--enforce-integrity"],
        ["figure6", "--enforce-integrity"],
        ["table2", "--enforce-integrity"],
        ["report", "--enforce-integrity"],
        ["metrics", "--no-enforce"],
    ], ids=" ".join)
    def test_removed_integrity_flags_are_usage_errors(self, monkeypatch,
                                                      capsys, argv):
        # Integrity is always enforced; --waive CHECK is the only switch.
        self._assert_usage_error(monkeypatch, capsys, argv,
                                 f"unrecognized arguments: {argv[1]}")

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCacheCommand:
    def _seed(self, tmp_path):
        import os

        (tmp_path / "aaaa.json").write_bytes(b"r" * 256)
        stale = tmp_path / "bbbb.json"
        stale.write_bytes(b"r" * 64)
        ancient = 1_000_000_000.0  # 2001: older than any --max-age
        os.utime(stale, (ancient, ancient))

    def test_cache_info_summarizes_kinds(self, capsys, tmp_path):
        self._seed(tmp_path)
        assert main(["cache", "info", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "result entries: 2 (320 bytes)" in out

    def test_cache_info_verbose_lists_entries(self, capsys, tmp_path):
        self._seed(tmp_path)
        assert main(["cache", "info", "--dir", str(tmp_path),
                     "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "aaaa.json" in out
        assert "bbbb.json" in out

    def test_cache_info_empty_directory(self, capsys, tmp_path):
        assert main(["cache", "info", "--dir",
                     str(tmp_path / "missing")]) == 0
        assert "result entries: 0 (0 bytes)" in capsys.readouterr().out

    def test_cache_prune_by_age(self, capsys, tmp_path):
        self._seed(tmp_path)
        assert main(["cache", "prune", "--dir", str(tmp_path),
                     "--max-age", "365"]) == 0
        out = capsys.readouterr().out
        assert "bbbb.json" in out
        assert "pruned 1 entries; 1 remain" in out
        assert not (tmp_path / "bbbb.json").exists()
        assert (tmp_path / "aaaa.json").exists()

    def test_cache_prune_by_bytes(self, capsys, tmp_path):
        self._seed(tmp_path)
        # 320 bytes on disk, 300 allowed: the oldest entry goes.
        assert main(["cache", "prune", "--dir", str(tmp_path),
                     "--max-bytes", "300"]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 entries; 1 remain (256 bytes)" in out
        assert not (tmp_path / "bbbb.json").exists()

    @pytest.mark.parametrize("argv,message", [
        (["--max-age", "-1"], "must be a non-negative number, got -1"),
        (["--max-age", "nan"], "must be a non-negative number, got nan"),
        (["--max-age", "inf"], "must be a non-negative number, got inf"),
        (["--max-bytes", "-1"], "must be at least 0, got -1"),
    ])
    def test_negative_prune_limit_is_a_usage_error(self, monkeypatch, capsys,
                                                   tmp_path, argv, message):
        # A negative limit used to delete every entry and exit 0.
        self._seed(tmp_path)
        TestCli._assert_usage_error(
            monkeypatch, capsys,
            ["cache", "prune", "--dir", str(tmp_path), *argv],
            f"argument {argv[0]}: {message}")
        assert len(list(tmp_path.glob("*.json"))) == 2

    @pytest.mark.parametrize("limit", ["--max-age", "--max-bytes"])
    def test_cache_prune_zero_empties_the_cache(self, capsys, tmp_path, limit):
        self._seed(tmp_path)
        assert main(["cache", "prune", "--dir", str(tmp_path),
                     limit, "0"]) == 0
        assert "pruned 2 entries; 0 remain" in capsys.readouterr().out
        assert not list(tmp_path.glob("*.json"))

    def test_cache_requires_action(self):
        with pytest.raises(SystemExit):
            main(["cache"])
