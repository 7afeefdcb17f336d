"""Set-up probe: a fresh interpreter imports the CLI and parses its flags.

Prints one line: the CLOCK_MONOTONIC time (shared by all processes of
the machine) at which ``parse_config`` returned, then the seconds spent
importing numpy, importing ``qubit_entropy.cli`` and in
``parse_config``.  Nothing else is imported before the clock stops.
"""
import time

_CLOCK = time.CLOCK_MONOTONIC
_t0 = time.clock_gettime(_CLOCK)
import sys  # noqa: E402

import numpy  # noqa: E402,F401

_t1 = time.clock_gettime(_CLOCK)
import qubit_entropy.cli  # noqa: E402

_t2 = time.clock_gettime(_CLOCK)
qubit_entropy.cli.parse_config(sys.argv[1:])
_t3 = time.clock_gettime(_CLOCK)
print(_t3, _t1 - _t0, _t2 - _t1, _t3 - _t2, qubit_entropy.cli.__file__)
