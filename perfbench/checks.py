"""Output checks on closed-loop episodes.

Every check returns a list of problem strings; an empty list means the
episode passed.  A check that fails names the step and the quantity, so
the report says which promise of the program broke.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from mhmppi import controller, dynamics, sim, traceio

SIMPLEX_TOL = 1e-9  # |sum(alpha) - 1|
DESCENT_TOL = 1e-9  # relative slack on c.alpha_t <= c.alpha_{t-1}


def _executed(trace) -> tuple:
    states = np.stack([r.state for r in trace.records] + [trace.final_state])
    if trace.records:
        inputs = np.stack([r.inp for r in trace.records])
    else:
        inputs = np.zeros((0, 0))
    return states, inputs


def episode_problems(scenario, trace, trace_path: str) -> list:
    """All output checks for one episode; see the module docstring."""
    problems = []
    records = trace.records
    n = len(records)
    term = trace.termination
    abort_step = None if scenario.abort is None else scenario.abort.step
    # the loop reaching step abort_step means the abort happened, even if
    # the chosen backup was already reached there
    aborted = abort_step is not None and n >= abort_step
    states, inputs = _executed(trace)

    # finite inputs and states
    if not np.all(np.isfinite(states)):
        problems.append(f"non-finite state at step {int(np.argmax(~np.isfinite(states).all(1)))}")
    if n and not np.all(np.isfinite(inputs)):
        problems.append(f"non-finite input at step {int(np.argmax(~np.isfinite(inputs).all(1)))}")

    # weights on the simplex
    for rec in records:
        a = rec.alpha
        if np.any(a < 0.0) or abs(a.sum() - 1.0) > SIMPLEX_TOL:
            problems.append(f"step {rec.step}: weights {a.tolist()} are off the simplex")
            break

    # descent constraint before the abort: c.alpha_t <= c.alpha_{t-1}
    init = controller.init_state(
        scenario.x0, scenario.controller, scenario.missions, scenario.weight_law
    )
    alpha_prev = init.alpha
    for t in range(min(n, abort_step) if abort_step is not None else n):
        diag = trace.diagnostics[t]
        c = diag.plan_costs - diag.tail_costs
        now, before = float(c @ records[t].alpha), float(c @ alpha_prev)
        if now > before + DESCENT_TOL * max(1.0, abs(before)):
            problems.append(f"step {t}: descent constraint broken, c.alpha {now!r} > {before!r}")
            break
        alpha_prev = records[t].alpha

    # one-hot weights of the chosen mission after the abort
    chosen = None
    if aborted:
        chosen = int(np.argmax(records[abort_step].alpha)) if n > abort_step else term.mission
        one_hot = np.zeros(len(scenario.missions))
        one_hot[chosen] = 1.0
        if chosen < 1:
            problems.append(f"step {abort_step}: abort chose the primary mission")
        for rec in records[abort_step:]:
            if not np.array_equal(rec.alpha, one_hot):
                problems.append(f"step {rec.step}: post-abort weights {rec.alpha.tolist()} not one-hot")
                break

    # replaying the executed inputs reproduces every next state exactly
    for t, rec in enumerate(records):
        mode = scenario.abort.new_mode if aborted and t >= abort_step else 0
        nxt = dynamics.step(scenario.model, rec.state, rec.inp, mode)
        if not np.array_equal(nxt, states[t + 1]):
            problems.append(f"step {t}: replayed state {nxt.tolist()} != recorded {states[t + 1].tolist()}")
            break

    # termination label against sim.is_completed on the final state
    goal = chosen if aborted else 0
    done = sim.is_completed(
        trace.final_state,
        scenario.missions[goal].target,
        scenario.completion_metric,
        scenario.completion_tol,
    )
    expected_kind = ("aborted_completed" if aborted else "completed") if done else "max_steps"
    if term.kind != expected_kind:
        problems.append(f"termination {term.label()} but final state says {expected_kind}")
    elif term.reached_goal and term.mission != goal:
        problems.append(f"termination {term.label()} names mission {term.mission}, active goal is {goal}")
    if term.steps != n or (term.kind == "max_steps" and n != scenario.max_steps):
        problems.append(f"termination reports {term.steps} steps, trace holds {n}")

    # the trace file reads back to the executed inputs and states
    back = traceio.read_trace(trace_path)
    b_states, b_inputs = _executed(back)
    if back.termination != term or not (
        np.array_equal(b_states, states) and np.array_equal(b_inputs, inputs)
    ):
        problems.append(f"{trace_path}: trace file does not read back to the episode")
    return problems


def reached_goal(trace, problems: list) -> bool:
    """Goal reached: the label says so and the label passed its check."""
    return trace.termination.reached_goal and not problems


def determinism_problems(scenario, prefix_steps: int) -> list:
    """Run the first ``prefix_steps`` steps of ``scenario`` twice; executed
    inputs and states must be bit-identical."""
    short = replace(scenario, max_steps=prefix_steps)
    runs = [sim.run_closed_loop(short) for _ in range(2)]
    (sa, ia), (sb, ib) = (_executed(tr) for tr in runs)
    if sa.shape != sb.shape or sa.tobytes() != sb.tobytes() or ia.tobytes() != ib.tobytes():
        return [f"{scenario.name}: two runs of the first {prefix_steps} steps differ"]
    return []
