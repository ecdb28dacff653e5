"""forgeloop: an agentic loop that builds bespoke LLM serving systems.

An outer planning loop (issue-tracker, evolutionary, or Ralph policy) plans
over validated git checkpoints and dispatches one task per round to an inner
Implementer -> Accuracy Judge -> Performance Evaluator pipeline. All agent
intelligence comes from pluggable external harness processes; a deterministic
scripted stub covers offline testing.

Keep this package import-light: every ``forgeloop run`` and every read-only
CLI command (report, status, replay) loads it in a fresh process before doing
any work. The scripted stub runs by file path and imports nothing from it.
"""

__version__ = "0.1.0"
