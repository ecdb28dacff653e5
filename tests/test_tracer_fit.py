"""The benchmark's tracer (overheadbench/tracing.py) patches named functions
and methods of the package; a rename here must fail this suite rather than
the next traced benchmark run."""

from pathlib import Path

OVERHEADBENCH = Path(__file__).resolve().parent.parent / "overheadbench"


def test_tracer_installs_and_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(OVERHEADBENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._patches)
    tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner!r}.{attr} not restored"


def test_tracer_keys_agent_turns_by_role(monkeypatch, toy_workspace, toy_contract, tmp_path):
    # The per-role harness.invoke_ms_p50 metrics read invoke_agent spans
    # keyed by the role of the call's second argument; a signature change
    # would leave them empty rather than fail.
    monkeypatch.syspath_prepend(str(OVERHEADBENCH))
    import tracing

    from forgeloop.innerloop import Agents, execute_round
    from forgeloop.mcp import ToolServer
    from forgeloop.policy import IssueTrackerPolicy
    from forgeloop.runner import stub_harness_provider

    policy = IssueTrackerPolicy(toy_workspace)
    directive = policy.begin_round(0)
    contract = toy_contract._replace(budgets=toy_contract.budgets._replace(retry_budget=1))
    agents = Agents(stub_harness_provider(tmp_path / "no-scripts", 30), ToolServer([]))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        execute_round(directive, 0, toy_workspace, contract, agents)
    finally:
        tracer.uninstall()
    for role in ("Implementer", "Judge"):
        assert tracer.select("harness", "invoke_agent", role), f"no invoke_agent span keyed {role!r}"
    # workspace.git_* reads git launches as subprocess.run spans and
    # harness.spawns_per_round reads agent launches as subprocess.Popen spans.
    assert tracer.select("subprocess", "run", "git"), "no git launch traced as subprocess.run"
    agent_spawns = tracer.select("subprocess", "popen", "agent")
    assert len(agent_spawns) == len(tracer.select("harness", "invoke_agent")) >= 2
