"""numpy for every library module, imported at its first attribute access.

`fdqpt topo`, `--help` and the refusals raised before the first array need
only `math`, yet numpy's import would be most of their launch. A numpy
already imported (the tests, benchmark and scripts) is bound as it is; a
missing or blocked one raises what `import numpy` raises. No package module
may hold an `import numpy` statement: on Python 3.11 it reads `__spec__`,
which runs the import. Python 3.11's LazyLoader is not thread-safe on first
access: callers here import numpy first or are the single-threaded CLI.
"""

import importlib.util
import sys


def _deferred(name):
    if name in sys.modules:  # imported already, or None where blocked
        return importlib.import_module(name)
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _deferred("numpy")
