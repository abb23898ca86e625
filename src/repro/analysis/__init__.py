"""Analysis and presentation layer.

Turns :class:`~repro.scope.report.SiteReport` collections into the
paper's tables and figures: empirical CDFs (Figs. 2, 4, 5, 6), count
tables (Tables IV-VII, Sections V-B/D/E/F) and the page-load-time
comparison (Fig. 3).
"""
