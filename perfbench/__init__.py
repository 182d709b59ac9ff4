"""Session-level benchmark of the Pythia reproduction (see ``run.py``)."""
