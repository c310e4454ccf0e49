"""Setup shim.

The repository declares no packaging metadata, so this ``setup()`` call
installs no package and no console script.  Run everything from a checkout
instead: ``PYTHONPATH=src python -m repro <command>``.
"""

from setuptools import setup

setup()
