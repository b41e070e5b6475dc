"""repro — reproduction of Kandaswamy et al., *Performance Implications of
Architectural and Software Techniques on I/O-Intensive Applications*
(ICPP 1998).

The package simulates 1990s distributed-memory message-passing machines
(Intel Paragon, IBM SP-2) with parallel file systems (PFS, PIOFS), a stack
of parallel-I/O software optimizations (efficient interface, prefetching,
two-phase collective I/O, file-layout transformation, balanced I/O), and the paper's five I/O-intensive applications (SCF 1.1,
SCF 3.0, out-of-core FFT, BTIO, AST) as simulated workloads.

Subpackages:

- :mod:`repro.sim`         -- discrete-event simulation engine
- :mod:`repro.machine`     -- machine model (nodes, disks, networks, presets)
- :mod:`repro.pfs`         -- parallel file systems (PFS, PIOFS)
- :mod:`repro.iolib`       -- I/O interfaces and the PASSION runtime
- :mod:`repro.trace`       -- Pablo-style I/O tracing
- :mod:`repro.apps`        -- the five applications
- :mod:`repro.experiments` -- per-table/figure experiment harness
"""

from repro._version import __version__
from repro.sim import Environment, Process, Timeout
from repro.machine import MachineConfig, Machine, paragon_small, paragon_large, sp2
from repro.pfs import PFS, PIOFS

__all__ = [
    "__version__",
    "Environment",
    "Process",
    "Timeout",
    "MachineConfig",
    "Machine",
    "paragon_small",
    "paragon_large",
    "sp2",
    "PFS",
    "PIOFS",
]
