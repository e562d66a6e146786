"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import (
    _COMMANDS,
    _CONFIGS,
    _DUTS,
    _PLATFORMS,
    main,
    render_fuzz,
    render_ladder,
)
from repro.core import CONFIG_B, CONFIG_BN, CONFIG_Z
from repro.dut import FAULT_CATALOGUE, XIANGSHAN_DEFAULT
from repro.parallel import CampaignExecutor
from tests.test_parallel import _specs


class TestRun:
    def test_run_default(self, capsys):
        code = main(["run", "--workload", "microbench"])
        out = capsys.readouterr().out
        assert code == 0
        assert "HIT GOOD TRAP" in out
        assert "Simulation speed:" in out

    def test_run_selects_platform(self, capsys):
        main(["run", "--workload", "microbench", "--platform", "fpga"])
        assert "FPGA" in capsys.readouterr().out

    def test_run_profile_flag(self, capsys):
        main(["run", "--workload", "microbench", "--profile"])
        assert "invocations/cycle" in capsys.readouterr().out

    def test_run_nutshell_baseline(self, capsys):
        code = main(["run", "--workload", "microbench", "--dut", "nutshell",
                     "--config", "Z"])
        assert code == 0

    def test_run_uart_output_shown(self, capsys):
        main(["run", "--workload", "mmio_echo"])
        assert "hello difftest-h" in capsys.readouterr().out

    def test_max_cycles_override(self, capsys):
        code = main(["run", "--workload", "microbench", "--max-cycles", "5"])
        assert code == 1  # did not finish

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            main(["run", "--workload", "nope"])

    def test_run_exports_trace_and_metrics(self, capsys, tmp_path):
        trace = tmp_path / "run.trace.json"
        metrics = tmp_path / "run.metrics.jsonl"
        code = main(["run", "--workload", "microbench",
                     "--trace-out", str(trace),
                     "--metrics-out", str(metrics)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"trace written to {trace}" in out
        assert f"metrics written to {metrics}" in out
        doc = json.loads(trace.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        names = [json.loads(line)["name"]
                 for line in metrics.read_text().splitlines()]
        assert "comm.bytes_sent" in names

    def test_run_report_identical_with_obs(self, capsys, tmp_path):
        code1 = main(["run", "--workload", "microbench"])
        plain = capsys.readouterr().out
        code2 = main(["run", "--workload", "microbench",
                      "--metrics-out", str(tmp_path / "m.jsonl")])
        observed = capsys.readouterr().out
        assert code1 == code2 == 0
        # Same counter report, modulo the export confirmation line.
        trimmed = "\n".join(line for line in observed.splitlines()
                            if not line.startswith("metrics written"))
        assert plain.strip() == trimmed.strip()

    def test_no_jit_pins_the_interpreter(self, capsys, tmp_path):
        """Compiled stepping is the default; ``--no-jit`` is its negation
        and changes nothing a user can read but the ``jit.*`` counters."""
        def run(*flags):
            metrics = tmp_path / "m.jsonl"
            code = main(["run", "--workload", "microbench",
                         "--metrics-out", str(metrics), *flags])
            names = {json.loads(line)["name"]
                     for line in metrics.read_text().splitlines()}
            return code, capsys.readouterr().out, names

        code, default, names = run()
        code_on, spelled_out, names_on = run("--jit")
        code_off, pinned, names_off = run("--no-jit")
        assert code == code_on == code_off == 0
        assert default == spelled_out == pinned
        assert "jit.hits" in names and "jit.hits" in names_on
        assert not any(name.startswith("jit.") for name in names_off)


class TestProfile:
    def test_profile_prints_stage_breakdown(self, capsys):
        code = main(["profile", "--workload", "microbench"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pipeline profile" in out
        for stage in ("capture", "pack", "transfer", "dispatch",
                      "ref_step", "compare"):
            assert stage in out
        assert "slowest stage:" in out
        assert "DiffTest-H counters" in out

    def test_profile_exports(self, capsys, tmp_path):
        trace = tmp_path / "p.json"
        metrics = tmp_path / "p.jsonl"
        code = main(["profile", "--workload", "microbench",
                     "--trace-out", str(trace),
                     "--metrics-out", str(metrics)])
        assert code == 0
        doc = json.loads(trace.read_text())
        phases = {e["name"] for e in doc["traceEvents"]
                  if e["ph"] == "X"}
        assert {"capture", "compare"} <= phases
        assert metrics.read_text().strip()


class TestLadder:
    def test_ladder_prints_four_rows(self, capsys):
        code = main(["ladder", "--workload", "microbench"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("Z", "B", "BIN", "EBINSD"):
            assert name in out


class TestInject:
    def test_inject_detects_and_reports(self, capsys):
        code = main(["inject", "--fault", "store_queue_mismatch",
                     "--workload", "microbench", "--trigger", "300"])
        out = capsys.readouterr().out
        assert code == 0
        assert "detected at cycle" in out
        assert "debug report" in out

    def test_inject_unknown_fault(self):
        with pytest.raises(KeyError):
            main(["inject", "--fault", "nope"])

    #: A stock workload and trigger point that keep each fault's
    #: corruption architecturally live, so ``repro inject`` catches it.
    CATCHING_RUN = {
        "wrong_virtual_address": ("timer_interrupt", 500),
        "misaligned_wakeup": ("microbench", 500),
        "improper_interrupt_response": ("timer_interrupt", 500),
        "wrong_exception_cause": ("timer_interrupt", 500),
        "double_trap_state": ("timer_interrupt", 500),
        "interrupt_tval_leak": ("timer_interrupt", 500),
        "store_queue_mismatch": ("microbench", 500),
        "cache_line_corruption": ("memory_churn", 500),
        "icache_refill_corruption": ("sort", 500),
        "tlb_wrong_permission": ("virtual_memory", 30),
        "sbuffer_lost_bytes": ("microbench", 500),
        "amo_wrong_old_value": ("atomics", 500),
        "wrong_vstart_update": ("vector_saxpy", 500),
        "vs_dirty_wrong": ("microbench", 500),
        "vector_lane_corrupt": ("rvv_test", 500),
        "vector_exception_track": ("vector_saxpy", 500),
        "fp_flag_corrupt": ("fp_kernel", 500),
        "fp_writeback_corrupt": ("fp_kernel", 30),
        "control_flow_wdata": ("sort", 500),
    }

    def test_catching_run_covers_the_catalogue(self):
        assert sorted(self.CATCHING_RUN) == sorted(
            spec.name for spec in FAULT_CATALOGUE)

    @pytest.mark.parametrize("spec", FAULT_CATALOGUE, ids=lambda s: s.name)
    def test_every_fault_is_caught_from_the_cli(self, spec, capsys):
        workload, trigger = self.CATCHING_RUN[spec.name]
        code = main(["inject", "--fault", spec.name, "--workload", workload,
                     "--trigger", str(trigger)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == (
            f"injected {spec.name} ({spec.description}, XiangShan PR "
            f"{spec.pull_request}) at instruction {trigger}")
        assert lines[1].startswith("detected at cycle ")
        assert lines[2] == "=== DiffTest-H debug report ==="


class TestFuzz:
    def test_fuzz_passes(self, capsys):
        code = main(["fuzz", "--seeds", "3", "--length", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "3/3 passed" in out

    def test_fuzz_exports_campaign_telemetry(self, capsys, tmp_path):
        trace = tmp_path / "fuzz.json"
        metrics = tmp_path / "fuzz.jsonl"
        code = main(["fuzz", "--seeds", "2", "--length", "40",
                     "--workers", "1", "--trace-out", str(trace),
                     "--metrics-out", str(metrics)])
        assert code == 0
        doc = json.loads(trace.read_text())
        job_names = [e["name"] for e in doc["traceEvents"]
                     if e["ph"] == "X"]
        assert len(job_names) == 2
        assert all(name.startswith("job:") for name in job_names)
        by_name = {json.loads(line)["name"]: json.loads(line)
                   for line in metrics.read_text().splitlines()}
        # Aggregated over both seeds' runs.
        assert by_name["run.cycles"]["value"] > 0
        assert by_name["comm.invokes"]["kind"] == "counter"


@pytest.mark.campaign
class TestWorkersFlag:
    """`--workers N` must parse, run, and emit byte-identical summaries."""

    def _capture(self, capsys, argv):
        code = main(argv)
        return code, capsys.readouterr().out

    def test_fuzz_workers_matches_serial(self, capsys):
        base = ["fuzz", "--seeds", "4", "--length", "40"]
        code1, serial = self._capture(capsys, base + ["--workers", "1"])
        code2, parallel = self._capture(capsys, base + ["--workers", "2"])
        assert code1 == code2 == 0
        assert serial == parallel
        assert "4/4 passed" in serial

    def test_fuzz_fail_fast_flag_parses(self, capsys):
        code, out = self._capture(
            capsys, ["fuzz", "--seeds", "2", "--length", "40",
                     "--fail-fast", "--workers", "2"])
        assert code == 0
        assert "2/2 passed" in out

    def test_ladder_workers_matches_serial(self, capsys):
        base = ["ladder", "--workload", "microbench"]
        code1, serial = self._capture(capsys, base + ["--workers", "1"])
        code2, parallel = self._capture(capsys, base + ["--workers", "2"])
        assert code1 == code2 == 0
        assert serial == parallel
        for name in ("Z", "B", "BIN", "EBINSD"):
            assert name in serial

    def test_sweep_workers_matches_serial(self, capsys):
        base = ["sweep", "--workload", "microbench"]
        code1, serial = self._capture(capsys, base + ["--workers", "1"])
        code2, parallel = self._capture(capsys, base + ["--workers", "2"])
        assert code1 == code2 == 0
        assert serial == parallel
        assert "sweep of bw_bytes_per_us" in serial

    def test_sweep_multi_config(self, capsys):
        code, out = self._capture(
            capsys, ["sweep", "--workload", "microbench",
                     "--config", "B,EBINSD", "--workers", "2"])
        assert code == 0
        assert out.count("sweep of bw_bytes_per_us") == 2
        assert "(microbench, B)" in out
        assert "(microbench, EBINSD)" in out


class TestNameRegistries:
    """The ``--dut``/``--config``/``--platform`` names and the verb set."""

    @pytest.mark.parametrize("name", sorted(_DUTS))
    def test_every_dut_name_runs(self, name, capsys):
        main(["run", "--dut", name, "--max-cycles", "2000"])
        out = capsys.readouterr().out
        assert f"dut      : {_DUTS[name].name}   config: EBINSD" in out

    @pytest.mark.parametrize("name", sorted(_CONFIGS))
    def test_every_config_name_runs(self, name, capsys):
        main(["run", "--config", name, "--max-cycles", "2000"])
        out = capsys.readouterr().out
        assert f"config: {_CONFIGS[name].name}\n" in out

    @pytest.mark.parametrize("name", sorted(_PLATFORMS))
    def test_every_platform_name_runs(self, name, capsys):
        main(["run", "--platform", name, "--max-cycles", "2000"])
        out = capsys.readouterr().out
        assert f" KHz on {_PLATFORMS[name].name} (communication " in out

    @pytest.mark.parametrize("verb,flag", [
        ("run", "--dut"), ("run", "--config"), ("run", "--platform"),
        ("profile", "--dut"), ("profile", "--config"),
        ("ladder", "--dut"),
        ("inject", "--dut"), ("inject", "--config"),
        ("sweep", "--dut"), ("sweep", "--platform"),
    ])
    def test_unknown_name_is_rejected(self, verb, flag, capsys):
        argv = [verb, flag, "cray-1"]
        if verb == "inject":
            argv += ["--fault", "store_queue_mismatch"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice: 'cray-1'" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["serve", "submit", "status",
                                      "results", "cancel", "health"])
    def test_retired_service_verb_is_rejected(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([verb])
        assert exit_info.value.code == 2
        assert f"invalid choice: '{verb}'" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", sorted(_COMMANDS))
    def test_every_verb_has_help(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: repro {verb} ")


class TestListings:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "linux_boot_like" in out
        assert "kvm_like" in out

    def test_faults(self, capsys):
        assert main(["faults"]) == 0
        out = capsys.readouterr().out
        assert "#3964" in out
        assert len(out.strip().splitlines()) == 19

    def test_events(self, capsys):
        assert main(["events"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 32
        assert "VecRegState" in out

    def test_workloads_json(self, capsys):
        import json

        assert main(["workloads", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        names = {row["name"] for row in rows}
        assert {"linux_boot_like", "kvm_like"} <= names
        assert all(row["description"] for row in rows)

    def test_faults_json(self, capsys):
        import json

        assert main(["faults", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 19
        assert {"pull_request", "name", "component",
                "description"} <= set(rows[0])

    def test_events_json(self, capsys):
        import json

        assert main(["events", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 32
        by_name = {row["name"]: row for row in rows}
        assert by_name["ArchInterrupt"]["nde"] is True
        assert by_name["InstrCommit"]["payload_bytes"] > 0

    def test_json_listing_matches_text_listing(self, capsys):
        import json

        assert main(["faults", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert main(["faults"]) == 0
        text = capsys.readouterr().out
        for row in rows:
            assert row["name"] in text

    def test_module_invocation(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "faults"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "#3964" in proc.stdout


class TestSweep:
    def test_sweep_default(self, capsys):
        code = main(["sweep", "--workload", "microbench"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep of bw_bytes_per_us" in out
        assert "non-blocking gain" in out
        assert "reduction needed" in out

    def test_sweep_custom_values(self, capsys):
        code = main(["sweep", "--workload", "microbench",
                     "--parameter", "t_sync_us", "--values", "1,10,100"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("KHz") >= 3

    def test_sweep_exports_metrics(self, capsys, tmp_path):
        metrics = tmp_path / "sweep.jsonl"
        code = main(["sweep", "--workload", "microbench",
                     "--config", "B,EBINSD", "--workers", "1",
                     "--metrics-out", str(metrics)])
        assert code == 0
        names = [json.loads(line)["name"]
                 for line in metrics.read_text().splitlines()]
        assert "run.cycles" in names
        assert names == sorted(names)


class TestCampaignRenderers:
    """The report renderers over short-circuited serial campaigns of the
    ``test-pass``/``test-fail``/``test-boom`` runners."""

    @staticmethod
    def _campaign(*kinds):
        specs = [spec for kind in kinds for spec in _specs(kind, 1)]
        return CampaignExecutor(workers=1, short_circuit=True).run(specs)

    def test_fail_fast_footer(self):
        campaign = self._campaign("test-pass", "test-fail", "test-pass",
                                  "test-pass")
        assert render_fuzz(campaign, 10, 4).splitlines() == [
            "seed     10: ok  (5 instr)",
            "seed     11: FAIL  (5 instr)",
            "",
            "1/2 passed",
            "(fail-fast: stopped after 2 of 4 seeds)",
        ]

    def test_fault_free_fuzz_has_no_quarantine_or_fail_fast_line(self):
        campaign = self._campaign("test-pass", "test-pass", "test-pass")
        report = render_fuzz(campaign, 0, 3)
        assert report.splitlines()[-2:] == ["", "3/3 passed"]
        assert "quarantined" not in report
        assert "fail-fast" not in report

    @pytest.mark.parametrize("kind,tail", [
        ("test-fail", ["B: FAILED (FAIL)"]),
        ("test-boom", ["B: FAILED (ERROR)",
                       "  ValueError: deliberate runner explosion"]),
    ], ids=["fail", "error"])
    def test_failing_rung_cuts_the_ladder(self, kind, tail):
        campaign = self._campaign("test-pass", kind, "test-pass")
        text, ok = render_ladder(campaign, XIANGSHAN_DEFAULT,
                                 [CONFIG_Z, CONFIG_B, CONFIG_BN])
        lines = text.splitlines()
        assert not ok
        assert lines[0].split()[0] == "config"
        assert lines[1].split()[0] == "Z"
        assert lines[2:] == tail  # no BIN row after the failing rung
