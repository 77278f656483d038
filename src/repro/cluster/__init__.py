"""Cluster serving plane: worker daemons, an ingress tier, and a supervisor.

This package promotes the single-process serving engine into the paper's
actual deployment shape (Figure 1): model containers live in separate
**worker** OS processes behind :class:`~repro.rpc.server.ContainerRpcServer`,
an **ingress** process runs the HTTP edge plus a
:class:`~repro.core.clipper.Clipper` whose versions attach to *remote*
worker replicas, and a **supervisor** spawns and monitors the fleet.

The pieces:

* :mod:`repro.cluster.registry` — the shared on-disk worker registry.
  Workers advertise their endpoints (tcp port, shm capability) and their
  liveness TTL by writing durable announcement records and refreshing them
  as heartbeats; the ingress resolves live workers from the same directory.
* :mod:`repro.cluster.worker` — the worker daemon.  One process hosting
  model containers built from a named factory registry, serving each over
  the container RPC protocol (tcp, or same-host shared-memory rings).
* :mod:`repro.cluster.remote` — :class:`RemoteReplica` (a
  :class:`~repro.containers.replica.Replica` launched on a worker) and
  :class:`WorkerPlacer` (the placement callable that spreads a deployment's
  replicas over live workers), so the existing batching dispatchers, health
  monitor and admin verbs (deploy/scale/rollout/canary) drive cluster
  placements unchanged.
* :mod:`repro.cluster.ingress` — builds/runs the ingress tier process.
* :mod:`repro.cluster.supervisor` — :class:`Child`, the one way a cluster
  process is spawned, and the async :class:`Supervisor`: spawns N workers
  + 1 ingress, reads each one's port from its ``<KIND>_READY <port>`` line,
  respawns dead workers, drains the ingress first, then the workers
  (``scripts/cluster_up.py`` runs it as a process).

Import the classes from their modules; the package itself exports nothing.
"""
