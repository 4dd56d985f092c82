"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "social_network" in out
    assert "swarm_edge" in out


def test_describe_command(capsys):
    assert main(["describe", "banking"]) == 0
    out = capsys.readouterr().out
    assert "authentication" in out
    assert "processPayment" in out
    assert "34 services" in out


def test_describe_unknown_app_rejected():
    with pytest.raises(SystemExit):
        main(["describe", "petstore"])


def test_simulate_command(capsys):
    assert main(["simulate", "banking", "--qps", "20",
                 "--duration", "4", "--machines", "3"]) == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "p99" in out


def test_simulate_resilience_flags(capsys):
    assert main(["simulate", "banking", "--qps", "20",
                 "--duration", "4", "--machines", "3",
                 "--retries", "2", "--rpc-timeout", "0.05",
                 "--breakers"]) == 0
    out = capsys.readouterr().out
    assert "success ratio" in out
    assert "breaker rejections" in out


def test_simulate_metrics_and_traces_out(tmp_path, capsys):
    metrics = tmp_path / "metrics.prom"
    traces = tmp_path / "traces.json"
    assert main(["simulate", "banking", "--qps", "15",
                 "--duration", "4", "--machines", "3",
                 "--metrics-out", str(metrics),
                 "--traces-out", str(traces),
                 "--scrape-period", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "metrics written to" in out
    assert "traces written to" in out
    prom = metrics.read_text()
    assert "# TYPE repro_requests_total counter" in prom
    assert "repro_cpu_utilization" in prom
    import json
    doc = json.loads(traces.read_text())
    assert doc["resourceSpans"]
    span = doc["resourceSpans"][0]["scopeSpans"][0]["spans"][0]
    assert "startTimeUnixNano" in span


def test_report_qos_command(capsys):
    assert main(["report", "qos", "banking", "--qps", "30",
                 "--duration", "6", "--machines", "3",
                 "--delay", "payments:0.05"]) == 0
    out = capsys.readouterr().out
    assert "QoS attribution" in out
    assert "culprit ranking" in out or "no QoS violations" in out


def test_report_qos_rejects_unknown_service(capsys):
    assert main(["report", "qos", "banking",
                 "--delay", "nosuch:0.1"]) == 2
    assert "no service" in capsys.readouterr().err


def test_report_qos_rejects_malformed_fault():
    with pytest.raises(SystemExit):
        main(["report", "qos", "banking", "--delay", "payments"])
    with pytest.raises(SystemExit):
        main(["report", "qos", "banking", "--slow", "payments:fast"])


def test_provision_command(capsys):
    assert main(["provision", "social_network", "--qps", "500"]) == 0
    out = capsys.readouterr().out
    assert "replicas" in out
    assert "nginx-web" in out


def test_sweep_command(capsys):
    assert main(["sweep", "banking", "--qps", "10", "100"]) == 0
    out = capsys.readouterr().out
    assert "QoS met" in out


def test_dot_command(capsys):
    assert main(["dot", "ecommerce"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert '"front-end"' in out
    assert "->" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_chaos_list_scenarios(capsys):
    assert main(["chaos", "--list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "machine_crash" in out
    assert "zone_outage" in out
    assert "baseline" in out


def test_chaos_requires_app(capsys):
    assert main(["chaos"]) == 2
    assert "APP is required" in capsys.readouterr().err


def test_chaos_unknown_scenario_rejected(capsys):
    assert main(["chaos", "banking", "--scenario", "meteor"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_chaos_command_writes_scorecards(tmp_path, capsys):
    out_file = tmp_path / "scorecards.json"
    assert main(["chaos", "banking", "--qps", "20", "--duration", "8",
                 "--machines", "4",
                 "--scenario", "baseline",
                 "--scenario", "machine_crash",
                 "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "resilience scorecard: machine_crash" in out
    assert "chaos suite @ 20 QPS" in out
    import json
    payload = json.loads(out_file.read_text())
    assert payload["app"] == "banking"
    assert [s["scenario"] for s in payload["scenarios"]] == \
        ["baseline", "machine_crash"]
    baseline = payload["scenarios"][0]
    assert baseline["fault_count"] == 0
    assert baseline["steady_state_ok"] is True


def test_report_qos_json(capsys):
    assert main(["report", "qos", "banking", "--qps", "20",
                 "--duration", "6", "--machines", "3", "--json"]) == 0
    import json
    payload = json.loads(capsys.readouterr().out)
    assert payload["target"] > 0
    assert "episodes" in payload
    # The contract the predict label pipeline trains from.
    for episode in payload["episodes"]:
        assert "top_culprit" in episode
        assert "evidence" in episode


def test_predict_list_scenarios(capsys):
    assert main(["predict", "--list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "backpressure" in out
    assert "cascade" in out


def test_predict_unknown_scenario_rejected(capsys):
    assert main(["predict", "--scenario", "meteor"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_predict_rejects_train_eval_overlap(capsys):
    assert main(["predict", "--train-seeds", "1", "2",
                 "--eval-seeds", "2", "3"]) == 2
    assert "overlap" in capsys.readouterr().err


def test_predict_command_writes_report(tmp_path, capsys):
    out_file = tmp_path / "predict.json"
    assert main(["predict", "--scenario", "backpressure",
                 "--model", "heuristic", "--threshold", "0.3",
                 "--train-seeds", "1", "--eval-seeds", "2",
                 "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "held-out evaluation" in out
    assert "precision" in out
    import json
    payload = json.loads(out_file.read_text())
    assert payload["scenario"] == "backpressure"
    assert payload["model"] == "heuristic"
    assert [ev["seed"] for ev in payload["evals"]] == [2]


def test_lint_flow_analysis_clean_app(capsys):
    assert main(["lint", "--app", "social_network",
                 "--load", "100"]) == 0
    assert "no findings" in capsys.readouterr().out


def test_lint_flow_analysis_flags_underprovisioning(tmp_path, capsys):
    import json
    from repro.apps.registry import build_app
    app = build_app("social_network")
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps({
        "cores": 1, "mix": {"repost": 1.0},
        "replicas": {name: 1 for name in app.services}}))
    assert main(["lint", "--app", "social_network", "--load", "780",
                 "--config", str(cfg), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert "CAP001" in {f["code"] for f in payload["findings"]}


def test_lint_sarif_format(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nx = random.random()\n")
    import json
    assert main(["lint", str(bad), "--format", "sarif"]) == 1
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["version"] == "2.1.0"
    [run] = sarif["runs"]
    assert run["tool"]["driver"]["name"] == "repro-simlint"
    assert any(r["ruleId"] == "SIM001" for r in run["results"])


#: A schema-v2 envelope, the trace format the suite wrote before OTLP.
_SCHEMA_V2 = (
    '{"schemaVersion": 2, "spans": [{"traceId": "00000000", '
    '"id": "00000000.0000", "parentId": null, "name": "op", '
    '"localEndpoint": {"serviceName": "fe"}, "timestamp": 0, '
    '"duration": 900, "tags": {"status": "ok"}}]}')


@pytest.mark.parametrize("content, message", [
    (None, "cannot read"),
    ("not json {", "is not an OTLP trace export"),
    ("[]", "is not an OTLP trace export"),
    ("{}", "no OTLP traces in"),
    (_SCHEMA_V2, "no OTLP traces in"),
], ids=["missing", "not-json", "json-array", "empty-object",
        "schema-v2"])
def test_synth_clone_rejects_bad_trace_file(tmp_path, capsys, content,
                                            message):
    path = tmp_path / "traces.json"
    if content is not None:
        path.write_text(content)
    assert main(["synth", "clone", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert err.startswith("error: ") and message in err


def test_synth_clone_reports_unclonable_traces(tmp_path, capsys):
    from repro.obs import traces_to_otlp_json
    from repro.tracing import Span, Trace
    failed = Trace(operation="op", root=Span(
        service="fe", operation="op", start=0.0, end=1e-3,
        status="timeout"))
    path = tmp_path / "traces.json"
    path.write_text(traces_to_otlp_json([failed]))
    assert main(["synth", "clone", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error: SYN002 no successful traces" in err
