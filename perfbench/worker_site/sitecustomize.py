"""Start-up hook of the PySpark worker processes of a benchmark run.

``run.py`` puts this directory first on the workers' PYTHONPATH, so
Python imports this module when a worker starts; the process running
``run.py`` is not affected.

A PySpark worker calls ``importlib.invalidate_caches()`` before every
task. On Python 3.11 that makes every ``zipimporter`` on the worker's
import path re-read its whole archive directory (``pyspark.zip`` has
1328 entries, and a worker holds one importer per imported sub-package).
That is about 0.2 CPU-s per Spark task, more than the sweep's own
matcher work; it keeps every core busy, so pass times follow the host's
load more than the program. Python 3.12 made the re-read lazy. The
archives do not change during a run, so skipping the re-read changes no
import.
"""
import sys
import zipimport

if sys.version_info < (3, 12):
    zipimport.zipimporter.invalidate_caches = lambda self: None
