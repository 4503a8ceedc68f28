"""Unit conventions and constants for the simulator.

Conventions used across :mod:`repro.netsim` and everything built on it:

* time is in **seconds** (float),
* data sizes are in **bits** (float, to allow fluid fractions),
* bandwidth/rate is in **bits per second**.

The constants below let call sites speak in the units the paper uses
(Gbps for link speeds, MiB/GiB for collective message sizes).
"""

#: One gigabit per second, in bits/s.
GBPS = 1e9

#: One megabit per second, in bits/s.
MBPS = 1e6

#: One kibibyte, in bits.
KIB = 1024 * 8

#: One mebibyte, in bits.
MIB = 1024 * KIB

#: One gibibyte, in bits.
GIB = 1024 * MIB
