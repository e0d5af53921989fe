"""Discrete-event wireless network simulator.

This package replaces the paper's NS-2 substrate; each module's
docstring says what it abstracts and why, and docs/architecture.md maps
the package.  The pieces:

- :mod:`repro.sim.engine` — event scheduler (binary-heap calendar).
- :mod:`repro.sim.messages` — application messages and link frames.
- :mod:`repro.sim.storage` — bounded message stores with eviction and
  peak-occupancy tracking (the paper's storage metric).
- :mod:`repro.sim.radio` — propagation model (disk range abstraction of
  Two Ray Ground) and airtime accounting.
- :mod:`repro.sim.mac` — contention MAC: per-node FIFO transmit queue
  (Table 1's link-layer queue), carrier-sense backoff that grows with
  concurrent transmissions in range, collision loss, half-duplex nodes.
- :mod:`repro.sim.neighbors` — beaconing/neighbour discovery (the IMEP
  stand-in) plus timestamped location tables (location diffusion).
- :mod:`repro.sim.stats` — metrics collection.
- :mod:`repro.sim.world` — ties everything together and hosts protocols.
"""

from repro.sim.engine import Simulator
from repro.sim.messages import Frame, FrameKind, Message
from repro.sim.radio import RadioConfig
from repro.sim.stats import MetricsCollector, SimulationMetrics
from repro.sim.storage import MessageStore, StoreFullError
from repro.sim.world import NodeApi, Protocol, World, WorldConfig

__all__ = [
    "Frame",
    "FrameKind",
    "Message",
    "MessageStore",
    "MetricsCollector",
    "NodeApi",
    "Protocol",
    "RadioConfig",
    "SimulationMetrics",
    "Simulator",
    "StoreFullError",
    "World",
    "WorldConfig",
]
