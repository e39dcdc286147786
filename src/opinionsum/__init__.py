"""Weakly supervised opinion mining from parsed review text.

Extracts candidate opinion phrases from dependency/constituency annotations,
classifies them into keyword-seeded aspect and sentiment categories via a
unit-sphere embedding plus a distilled contextual classifier, and groups them
into fine-grained per-target opinion clusters.
"""

__version__ = "0.8.0"
