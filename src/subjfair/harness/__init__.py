"""Run files, reports, CLI; the synthetic generator (``synth``) and the
brute-force oracle (``oracle``) are imported from their own modules, so a
command that runs neither does not load them."""

from .runfile import AuditRunFile, RunFileError, load_run, save_run
from .report import audit_run, build_audit_doc, build_report_doc, render_text
