"""Elastic batch-size scaling (§3.3 of the paper).

Executing a new schedule may change a job's batch size and worker set.
The common practice — checkpoint, kill, restart — costs tens of seconds;
ONES instead pauses each affected worker at a step boundary, resizes its
buffers, reconnects the communication topology and resumes, at a cost of
roughly one second (Fig. 16).

* :mod:`repro.scaling.messages` — the control-plane messages exchanged
  between the scheduler, worker managers and scaling agents.
* :mod:`repro.scaling.agent` — the per-worker scaling-agent state machine
  (pause → resize → reconnect → broadcast → resume, Fig. 11).
* :mod:`repro.scaling.worker_manager` — the per-GPU worker manager that
  receives configurations from the scheduler and drives its agent.
* :mod:`repro.scaling.coordinator` — the checkpoint-free migration
  workflow for adding/removing workers (Fig. 12).
* :mod:`repro.scaling.overhead` — the overhead model comparing elastic
  scaling against checkpoint-based migration (Fig. 16).
"""
