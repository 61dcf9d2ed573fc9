"""Closed-loop CLI benchmark for eqarea: seeded workloads, exact-path checks, traced layers.

``reference`` is a frozen copy of the eqarea package from the commit that
added this benchmark. It is timed next to each op and never changes.
"""
