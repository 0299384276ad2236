"""Nada reproduction: designing network algorithms via large language models.

Top-level package; see the subpackages for the individual systems:

- :mod:`repro.core` — the Nada framework (generation, filtering, evaluation).
- :mod:`repro.llm` — LLM substrate (synthetic design generator, embeddings).
- :mod:`repro.nn` — NumPy autograd and neural-network layers.
- :mod:`repro.rl` — actor-critic training.
- :mod:`repro.abr` — adaptive-bitrate streaming substrate (Pensieve).
- :mod:`repro.emulation` — packet-level emulation substrate.
- :mod:`repro.traces` — network bandwidth traces.
- :mod:`repro.analysis` — metrics, tables and experiment drivers.
"""

import ctypes
import glob
import os

__version__ = "1.0.0"

__all__ = ["__version__", "pin_blas_threads"]


def pin_blas_threads() -> bool:
    """Limit numpy's bundled OpenBLAS to one thread in this process.

    Engine jobs are single-threaded by design and run side by side in pool
    workers and ``repro worker`` subprocesses; a multi-threaded BLAS in each
    of them oversubscribes the CPUs, which slows healthy jobs past their
    ``job_timeout``.  Called once when :mod:`repro` is imported, so the
    parent, its forked pool workers (which inherit the setting) and remote
    workers all run the same thread count — and so produce the same bits.
    Returns False, changing nothing, when no known setter is found.
    """
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # not loadable here; numpy cannot be using it
            continue
        for symbol in ("scipy_openblas_set_num_threads64_",
                       "openblas_set_num_threads64_",
                       "openblas_set_num_threads"):
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return True
    return False


pin_blas_threads()
