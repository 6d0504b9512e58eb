"""muxbench — the repository's end-to-end and per-layer yardstick.

Five fixed-op-count workloads drive the Mux reproduction through its
public surface only (``build_stack``/``build_cluster``, the ``Stack``
fields, the VFS calls, the ring API, ``set_placement``) and report 16
end-to-end metrics on two clocks plus a per-layer traced pass.  See
``muxbench/README.md`` for what each workload loads and bypasses.
"""
