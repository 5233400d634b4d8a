"""Elastic batch-size scaling (§3.3 of the paper).

Executing a new schedule may change a job's batch size and worker set.
The common practice — checkpoint, kill, restart — costs tens of seconds;
ONES instead pauses each affected worker at a step boundary, resizes its
buffers, reconnects the communication topology and resumes, at a cost of
roughly one second (Fig. 16).

* :mod:`repro.scaling.overhead` — the overhead model comparing elastic
  scaling against checkpoint-based migration (Fig. 16), phase by phase
  (step drain, communicator re-init, buffer resize, parameter
  broadcast).  The simulator charges this cost whenever it
  re-configures a running job.
"""
