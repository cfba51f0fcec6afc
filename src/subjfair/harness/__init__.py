"""Run files, synthetic populations, the brute-force oracle, reports, CLI."""

from .runfile import AuditRunFile, RunFileError, load_run, save_run
from .synth import SynthProfile, generate_population
from .oracle import brute_force_oracle
from .report import audit_run, build_audit_doc, build_report_doc, render_text
