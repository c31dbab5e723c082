"""SOR — a reproduction of "SOR: An Objective Ranking System Based on
Mobile Phone Sensing" (Sheng, Tang, Wang, Gao, Xue — IEEE ICDCS 2014).

Top-level layout:

* :mod:`repro.core` — the paper's algorithms (scheduling, ranking,
  feature extraction),
* :mod:`repro.phone` / :mod:`repro.server` — the mobile frontend and
  sensing server,
* :mod:`repro.script` — LuaLite, the sensing-task scripting language,
* :mod:`repro.sensors`, :mod:`repro.net`, :mod:`repro.db`,
  :mod:`repro.barcode`, :mod:`repro.sim` — the substrates,
* :mod:`repro.experiments` — one module per paper table/figure,
* ``python -m repro <command>`` — regenerate any of them, or run a system
  scenario, from the shell (one subcommand per job; see :mod:`repro.cli`).
"""

__version__ = "1.0.0"
