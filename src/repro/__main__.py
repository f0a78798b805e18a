"""``python -m repro``: the ``repro`` command (see :mod:`repro.cli`)."""

from repro.cli import main

raise SystemExit(main())
