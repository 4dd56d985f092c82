"""Tests for the simulator flight recorder (repro.obs.profile): the
engine-loop hook's dual event/subsystem attribution, scoped sections,
and the ``repro profile`` / ``repro report critical-path`` commands."""

import json
import re
import time

import pytest

from repro.apps.registry import build_app
from repro.cli import main
from repro.core.experiment import simulate
from repro.obs import FlightRecorder
from repro.obs.profile import _subsystem_of, profile_simulation
from repro.sim.engine import Environment


DOTTED = re.compile(r"^[a-z_]+(\.[a-z_0-9]+)*$")


class TestSubsystemOf:
    def test_repro_relative_dotted_module(self):
        assert _subsystem_of(
            "/root/repo/src/repro/net/fabric.py") == "net.fabric"
        assert _subsystem_of(
            "/x/src/repro/sim/engine.py") == "sim.engine"

    def test_windows_separators_normalized(self):
        assert _subsystem_of(
            "C:\\work\\src\\repro\\core\\deployment.py") \
            == "core.deployment"

    def test_non_repro_code_is_external(self):
        assert _subsystem_of("/usr/lib/python3.12/random.py") \
            == "(external)"


class TestInstallGuards:
    def test_double_install_rejected(self):
        env = Environment()
        recorder = FlightRecorder()
        recorder.install(env)
        with pytest.raises(RuntimeError):
            recorder.install(env)
        recorder.uninstall()

    def test_uninstall_without_install_rejected(self):
        with pytest.raises(RuntimeError):
            FlightRecorder().uninstall()

    def test_occupied_step_hook_rejected(self):
        env = Environment()
        env.step_hook = lambda event: None
        with pytest.raises(RuntimeError):
            FlightRecorder().install(env)

    def test_uninstall_restores_the_fast_loop(self):
        env = Environment()
        recorder = FlightRecorder()
        recorder.install(env)
        assert env.step_hook is not None
        recorder.uninstall()
        assert env.step_hook is None
        # Reinstallable after a clean uninstall.
        recorder.install(env)
        recorder.uninstall()


class TestScopes:
    def test_nested_scopes_split_self_and_total(self):
        recorder = FlightRecorder()
        with recorder.scope("outer"):
            with recorder.scope("inner"):
                time.sleep(0.02)
        outer = recorder.sections["outer"]
        inner = recorder.sections["inner"]
        assert inner[0] >= 0.02
        # outer total covers inner; outer self excludes it.
        assert outer[0] >= inner[0]
        assert outer[1] == pytest.approx(outer[0] - inner[0], abs=1e-6)
        assert outer[2] == inner[2] == 1

    def test_repeat_entries_accumulate(self):
        recorder = FlightRecorder()
        for _ in range(3):
            with recorder.scope("loop"):
                pass
        assert recorder.sections["loop"][2] == 3
        assert recorder.to_dict()["sections"]["loop"]["entries"] == 3


@pytest.fixture(scope="module")
def recorded_run():
    app = build_app("banking")
    recorder = FlightRecorder()
    result = simulate(app, qps=25.0, duration=5.0, n_machines=3,
                      seed=3, setup=lambda dep: recorder.install(dep.env))
    recorder.uninstall()
    return result, recorder


class TestAttribution:
    def test_every_popped_event_is_observed(self, recorded_run):
        result, recorder = recorded_run
        assert recorder.events_observed > 0
        # Both attribution axes saw every closed gap.
        events_total = sum(int(s[1])
                           for s in recorder.event_stats.values())
        subsys_total = sum(int(s[1])
                           for s in recorder.subsystem_stats.values())
        assert events_total == subsys_total

    def test_process_instance_ids_collapse(self, recorded_run):
        _, recorder = recorded_run
        processes = [k for k in recorder.event_stats
                     if k.startswith("Process:")]
        assert processes, "no process events attributed"
        assert not any(re.search(r"[-_.:#]\d+$", k) for k in processes)

    def test_subsystems_are_repro_modules(self, recorded_run):
        _, recorder = recorded_run
        labels = set(recorder.subsystem_stats)
        named = {k for k in labels if not k.startswith("(")}
        assert named, "no repro subsystem attributed"
        assert all(DOTTED.match(k) for k in named)
        # The deployment runtime dominates any real run.
        assert "core.deployment" in labels

    def test_social_network_work_is_charged_to_the_deployment(self):
        """Process resumptions are charged to the process's own layer,
        even when a PS completion or a NIC departure wakes them; the
        engine primitives get only their own bookkeeping."""
        app = build_app("social_network")
        recorder = FlightRecorder()
        simulate(app, qps=80.0, duration=4.0, n_machines=6, seed=11,
                 setup=lambda dep: recorder.install(dep.env))
        recorder.uninstall()
        counts = {key: int(stat[1])
                  for key, stat in recorder.subsystem_stats.items()}
        assert max(counts, key=counts.get) == "core.deployment"
        assert counts["core.deployment"] > 1.5 * counts["sim.ps"]
        assert "sim.resources" not in counts

    def test_to_dict_shape_and_render(self, recorded_run):
        _, recorder = recorded_run
        doc = recorder.to_dict()
        for key in ("recorded_wall_sec", "events_observed", "events",
                    "subsystems", "sections"):
            assert key in doc
        assert doc["events_observed"] == recorder.events_observed
        assert doc["events_per_wall_sec"] > 0
        text = recorder.render(top=5)
        assert "event loop" in text
        assert "subsystems" in text

    def test_profile_simulation_driver(self):
        result, recorder = profile_simulation(
            "banking", qps=20.0, duration=4.0, machines=3, seed=1,
            sample_rate=0.5, sample_seed=1)
        assert recorder.events_observed > 0
        assert "export.otlp" in recorder.sections
        assert "export.prometheus" in recorder.sections
        desc = result.collector.sampling_description()
        assert desc["mode"] == "head-sampled"
        assert desc["rate"] == 0.5


class TestProfileCommand:
    def test_profile_writes_report_and_json(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        assert main(["profile", "banking", "--qps", "20",
                     "--duration", "4", "--machines", "3",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "event loop" in text
        assert "subsystems" in text
        doc = json.loads(out.read_text())
        assert set(doc) == {"profile", "scenario", "sampling"}
        assert doc["profile"]["events_observed"] > 0
        assert doc["profile"]["subsystems"]
        assert doc["sampling"]["mode"] == "unsampled"
        assert doc["scenario"]["app"] == "banking"

    def test_profile_with_sampling(self, capsys):
        assert main(["profile", "banking", "--qps", "20",
                     "--duration", "4", "--machines", "3",
                     "--sample-rate", "0.25",
                     "--sample-seed", "3"]) == 0
        text = capsys.readouterr().out
        assert "sampling=head-sampled (rate=0.25)" in text


class TestCriticalPathCommand:
    def test_table_output(self, capsys):
        assert main(["report", "critical-path", "banking",
                     "--qps", "20", "--duration", "5",
                     "--machines", "3"]) == 0
        text = capsys.readouterr().out
        assert "critical-path breakdown" in text
        assert "share p95" in text

    def test_json_output_with_sampling(self, capsys):
        assert main(["report", "critical-path", "banking",
                     "--qps", "20", "--duration", "5",
                     "--machines", "3", "--json",
                     "--sample-rate", "0.5", "--sample-seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sampling"]["mode"] == "head-sampled"
        assert doc["services"]
        for row in doc["services"].values():
            assert 0.0 <= row["presence"] <= 1.0
            assert row["mean_exclusive"] >= 0.0
