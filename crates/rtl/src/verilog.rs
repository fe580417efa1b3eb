//! Verilog-2005 emission of a lowered [`Design`]: one leaf module per cell
//! kind (parameterised per instance), one top module wiring the whole plan.
//!
//! The emitted RTL is *structural where the design is structural* (gates,
//! multiplexer trees, counters) and *behavioural where the design is
//! behavioural* (manipulator FSMs, sample generators) — mirroring what a
//! hardware engineer would hand to synthesis. Sample generators deserve a
//! caveat: the LFSR and the base-2 Van der Corput generator (a bit-reversed
//! counter) are faithful; Halton / Sobol generators are emitted as
//! bit-reversed-counter stand-ins with a comment, since their true hardware
//! (digit-reversal in radix `b`, direction-vector XOR banks) is out of scope
//! here. Emission is fully deterministic, so the output is snapshot-testable.

use crate::design::{CellKind, Design, NetRef, SinkPlan};
use sc_graph::ManipulatorKind;
use sc_rng::{Lfsr, SourceSpec};
use std::fmt::Write as _;

/// Fixed-point Q16 encoding of a probability/threshold in `[0, 1]`.
fn q16(value: f64) -> u32 {
    let scaled = (value.clamp(0.0, 1.0) * 65536.0).round() as u32;
    scaled.min(65535)
}

/// `(family, width, init, taps)` parameters of a sample generator.
fn sample_params(spec: &SourceSpec, skip: u64) -> (u32, u32, u64, u64) {
    match *spec {
        SourceSpec::Lfsr { width, seed } => {
            let mut lfsr = Lfsr::new(width, seed);
            lfsr.jump(skip);
            (0, width, lfsr.state(), lfsr.taps())
        }
        SourceSpec::VanDerCorput { offset } => (1, 16, offset.wrapping_add(skip), 0),
        SourceSpec::Halton { base: _, offset } => (1, 16, offset.wrapping_add(skip), 0),
        SourceSpec::Sobol { dimension } => (1, 16, skip.wrapping_add(u64::from(dimension)), 0),
        SourceSpec::Counter { modulus, phase } => {
            let width = spec.gate_model().state_bits.clamp(1, 32);
            (1, width, (phase + (skip % modulus)) % modulus, 0)
        }
    }
}

fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() || out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, 's');
    }
    out
}

fn net(n: NetRef) -> String {
    format!("n{}", n.index())
}

/// Concatenation expression of a bus, MSB first (Verilog `{...}` order).
fn bus_concat(bus: &[NetRef]) -> String {
    let names: Vec<String> = bus.iter().rev().map(|n| net(*n)).collect();
    format!("{{{}}}", names.join(", "))
}

/// Emits the design as a self-contained Verilog-2005 source file with the
/// given top-level module name.
#[must_use]
pub fn to_verilog(design: &Design, top_name: &str) -> String {
    let mut v = String::new();
    let _ = writeln!(
        v,
        "// Generated by sc_rtl from a compiled sc_graph plan.\n\
         // cells: {}, nets: {}, stream length: {} cycles.\n\
         // Leaf modules are emitted once per cell kind; instances are\n\
         // parameterised. Do not edit by hand.",
        design.cell_count(),
        design.net_count(),
        design.stream_length()
    );
    v.push('\n');
    emit_leaf_modules(&mut v, design);
    emit_top(&mut v, design, top_name);
    v
}

/// Which leaf modules the design needs, in a fixed emission order.
fn used_modules(design: &Design) -> Vec<&'static str> {
    let mut used = vec![false; MODULES.len()];
    let mut mark = |name: &str| {
        if let Some(pos) = MODULES.iter().position(|(n, _)| *n == name) {
            used[pos] = true;
        }
    };
    for cell in design.cells() {
        match &cell.kind {
            CellKind::And2 => mark("sc_and2"),
            CellKind::Or2 => mark("sc_or2"),
            CellKind::Xor2 => mark("sc_xor2"),
            CellKind::Xnor2 => mark("sc_xnor2"),
            CellKind::Inv => mark("sc_inv"),
            CellKind::Mux2 => mark("sc_mux2"),
            CellKind::Counter { .. } => mark("sc_counter"),
            CellKind::Source { .. } => {
                mark("sc_sample");
                mark("sc_source");
            }
            CellKind::SelectOneHot { .. } => {
                mark("sc_sample");
                mark("sc_wsel");
            }
            CellKind::Fsm { kind } => mark(fsm_module(*kind).0),
        }
    }
    MODULES
        .iter()
        .zip(used)
        .filter_map(|((name, _), u)| u.then_some(*name))
        .collect()
}

fn emit_leaf_modules(v: &mut String, design: &Design) {
    for name in used_modules(design) {
        let (_, body) = MODULES
            .iter()
            .find(|(n, _)| *n == name)
            .expect("module table covers every kind");
        v.push_str(body);
        v.push('\n');
    }
}

/// `(module name, full module source)` table, in emission order.
const MODULES: &[(&str, &str)] = &[
    ("sc_and2", "module sc_and2 (input a, input b, output y);\n  assign y = a & b;\nendmodule\n"),
    ("sc_or2", "module sc_or2 (input a, input b, output y);\n  assign y = a | b;\nendmodule\n"),
    ("sc_xor2", "module sc_xor2 (input a, input b, output y);\n  assign y = a ^ b;\nendmodule\n"),
    (
        "sc_xnor2",
        "module sc_xnor2 (input a, input b, output y);\n  assign y = ~(a ^ b);\nendmodule\n",
    ),
    ("sc_inv", "module sc_inv (input a, output y);\n  assign y = ~a;\nendmodule\n"),
    (
        "sc_mux2",
        "module sc_mux2 (input d0, input d1, input sel, output y);\n  assign y = sel ? d1 : d0;\nendmodule\n",
    ),
    (
        "sc_counter",
        "// S/D converter counter (Fig. 2f) with a combinational increment\n// read path: q carries the count including the current cycle.\nmodule sc_counter #(parameter WIDTH = 8)\n                   (input clk, input rst, input en, output [WIDTH-1:0] q);\n  reg [WIDTH-1:0] state;\n  always @(posedge clk or posedge rst)\n    if (rst) state <= {WIDTH{1'b0}};\n    else state <= state + en;\n  assign q = state + en;\nendmodule\n",
    ),
    (
        "sc_sample",
        "// Per-cycle sample generator, Q16 output.\n// FAMILY 0: maximal-length Fibonacci LFSR (faithful).\n// FAMILY 1: bit-reversed counter — exact for base-2 Van der Corput,\n//           a behavioural stand-in for Halton / Sobol.\n// The Q16 scaling runs in 64-bit arithmetic: a 32-bit `(1 << WIDTH) - 1`\n// denominator overflows outright for WIDTH >= 31 and leaves no numerator\n// headroom even at 16, so both sides are forced to 64 bits (exact for\n// WIDTH <= 48, where (2^WIDTH - 1) << 16 still fits).\nmodule sc_sample #(parameter FAMILY = 0,\n                   parameter WIDTH = 16,\n                   parameter [63:0] INIT = 64'd1,\n                   parameter [63:0] TAPS = 64'hB400)\n                  (input clk, input rst, output [15:0] q16);\n  reg [WIDTH-1:0] state;\n  wire feedback = ^(state & TAPS[WIDTH-1:0]);\n  reg [WIDTH-1:0] rev;\n  integer i;\n  wire [63:0] state64 = {{(64-WIDTH){1'b0}}, state};\n  wire [63:0] scaled = ((state64 - 64'd1) << 16) / ((64'd1 << WIDTH) - 64'd1);\n  always @(*) begin\n    rev = {WIDTH{1'b0}};\n    for (i = 0; i < WIDTH; i = i + 1)\n      rev[i] = state[WIDTH-1-i];\n  end\n  always @(posedge clk or posedge rst)\n    if (rst) state <= INIT[WIDTH-1:0];\n    else if (FAMILY == 0) state <= {state[WIDTH-2:0], feedback};\n    else state <= state + 1'b1;\n  assign q16 = (FAMILY == 0)\n      ? scaled[15:0]\n      : (WIDTH >= 16 ? rev[WIDTH-1 -: 16] : rev << (16 - WIDTH));\nendmodule\n",
    ),
    (
        "sc_source",
        "// D/S converter (Fig. 2g): value register compared against a fresh\n// sample every cycle.\nmodule sc_source #(parameter FAMILY = 0,\n                   parameter WIDTH = 16,\n                   parameter [63:0] INIT = 64'd1,\n                   parameter [63:0] TAPS = 64'hB400,\n                   parameter [15:0] THRESH = 16'd32768)\n                  (input clk, input rst, output y);\n  wire [15:0] q16;\n  sc_sample #(.FAMILY(FAMILY), .WIDTH(WIDTH), .INIT(INIT), .TAPS(TAPS))\n    gen (.clk(clk), .rst(rst), .q16(q16));\n  assign y = THRESH > q16;\nendmodule\n",
    ),
    (
        "sc_wsel",
        "// Weighted one-hot selection network: one fresh sample against the\n// packed cumulative thresholds; leftover mass falls to the last line.\n// The mux chain reads lines 1..K-1 (line 0 is its default), so only\n// those leave the module; a 1-way tree reads its one line 0.\nmodule sc_wsel #(parameter FAMILY = 0,\n                 parameter WIDTH = 16,\n                 parameter [63:0] INIT = 64'd1,\n                 parameter [63:0] TAPS = 64'hB400,\n                 parameter K = 2,\n                 parameter [16*K-1:0] CDF = {16*K{1'b0}})\n                (input clk, input rst, output [(K > 1 ? K - 2 : 0):0] sel);\n  wire [15:0] q16;\n  sc_sample #(.FAMILY(FAMILY), .WIDTH(WIDTH), .INIT(INIT), .TAPS(TAPS))\n    gen (.clk(clk), .rst(rst), .q16(q16));\n  reg [K-1:0] onehot;\n  reg found;\n  integer i;\n  always @(*) begin\n    onehot = {K{1'b0}};\n    found = 1'b0;\n    for (i = 0; i < K; i = i + 1)\n      if (!found && q16 < CDF[16*i +: 16]) begin\n        onehot[i] = 1'b1;\n        found = 1'b1;\n      end\n    if (!found) onehot[K-1] = 1'b1;\n  end\n  assign sel = onehot >> (K > 1);\nendmodule\n",
    ),
    (
        "sc_synchronizer",
        "// Synchronizer FSM (Fig. 3a), save depth D: a signed saved-bit credit\n// register pairs lone 1s across the streams, driving SCC toward +1.\nmodule sc_synchronizer #(parameter DEPTH = 1)\n                        (input clk, input rst, input x, input y,\n                         output reg ox, output reg oy);\n  reg signed [12:0] credit;\n  always @(*) begin\n    ox = x; oy = y;\n    if (x != y) begin\n      if (x && credit < 0)            begin ox = 1'b1; oy = 1'b1; end\n      else if (x && credit < DEPTH)   begin ox = 1'b0; oy = 1'b0; end\n      else if (!x && credit > 0)      begin ox = 1'b1; oy = 1'b1; end\n      else if (!x && credit > -DEPTH) begin ox = 1'b0; oy = 1'b0; end\n    end\n  end\n  always @(posedge clk or posedge rst)\n    if (rst) credit <= 13'sd0;\n    else if (x != y) begin\n      if (x && credit < 0)            credit <= credit + 13'sd1;\n      else if (x && credit < DEPTH)   credit <= credit + 13'sd1;\n      else if (!x && credit > 0)      credit <= credit - 13'sd1;\n      else if (!x && credit > -DEPTH) credit <= credit - 13'sd1;\n    end\nendmodule\n",
    ),
    (
        "sc_desynchronizer",
        "// Desynchronizer FSM (Fig. 3b), save depth D: banks one of each (1,1)\n// pair (alternating streams) and releases banked 1s on (0,0) cycles,\n// driving SCC toward -1.\nmodule sc_desynchronizer #(parameter DEPTH = 1)\n                          (input clk, input rst, input x, input y,\n                           output reg ox, output reg oy);\n  reg [12:0] saved_x, saved_y;\n  reg bank_x_next;\n  always @(*) begin\n    ox = x; oy = y;\n    if (x & y) begin\n      if (saved_x + saved_y < DEPTH) begin\n        if (bank_x_next) begin ox = 1'b0; oy = 1'b1; end\n        else begin ox = 1'b1; oy = 1'b0; end\n      end\n    end else if (!x & !y) begin\n      if (saved_x >= saved_y && saved_x > 0) ox = 1'b1;\n      else if (saved_y > 0) oy = 1'b1;\n    end\n  end\n  always @(posedge clk or posedge rst)\n    if (rst) begin\n      saved_x <= 13'd0; saved_y <= 13'd0; bank_x_next <= 1'b1;\n    end else if (x & y) begin\n      if (saved_x + saved_y < DEPTH) begin\n        if (bank_x_next) saved_x <= saved_x + 13'd1;\n        else saved_y <= saved_y + 13'd1;\n        bank_x_next <= ~bank_x_next;\n      end\n    end else if (!x & !y) begin\n      if (saved_x >= saved_y && saved_x > 0) saved_x <= saved_x - 13'd1;\n      else if (saved_y > 0) saved_y <= saved_y - 13'd1;\n    end\nendmodule\n",
    ),
    (
        "sc_decorrelator",
        "// Decorrelator (Fig. 4a): two shuffle buffers with independent LFSR\n// write addressing, driving SCC toward 0. Address wires are 13 bits so\n// every supported depth (1..=4096) indexes without truncation.\nmodule sc_decorrelator #(parameter DEPTH = 4)\n                        (input clk, input rst, input x, input y,\n                         output ox, output oy);\n  reg [DEPTH-1:0] buf_x, buf_y;\n  reg [15:0] addr_x, addr_y;\n  wire [12:0] ax = addr_x % DEPTH;\n  wire [12:0] ay = addr_y % DEPTH;\n  assign ox = buf_x[ax];\n  assign oy = buf_y[ay];\n  always @(posedge clk or posedge rst)\n    if (rst) begin\n      buf_x <= {DEPTH{1'b0}}; buf_y <= {DEPTH{1'b0}};\n      addr_x <= 16'hACE1; addr_y <= 16'h7331;\n    end else begin\n      buf_x[ax] <= x;\n      buf_y[ay] <= y;\n      addr_x <= {addr_x[14:0], ^(addr_x & 16'hB400)};\n      addr_y <= {addr_y[14:0], ^(addr_y & 16'hB400)};\n    end\nendmodule\n",
    ),
];

fn emit_top(v: &mut String, design: &Design, top_name: &str) {
    // Collect output ports: (port name, net or bus).
    enum Port {
        Bit(String, NetRef),
        Bus(String, Vec<NetRef>),
    }
    let mut ports: Vec<Port> = Vec::new();
    for sink in design.sinks() {
        match sink {
            SinkPlan::Stream { name, net } => ports.push(Port::Bit(sanitize(name), *net)),
            SinkPlan::Value {
                name,
                net,
                count_bus,
            } => {
                ports.push(Port::Bit(format!("{}_bit", sanitize(name)), *net));
                ports.push(Port::Bus(
                    format!("{}_count", sanitize(name)),
                    count_bus.clone(),
                ));
            }
            SinkPlan::Scc {
                name,
                x,
                y,
                a_bus,
                x_bus,
                y_bus,
            } => {
                let stem = sanitize(name);
                ports.push(Port::Bit(format!("{stem}_x"), *x));
                ports.push(Port::Bit(format!("{stem}_y"), *y));
                ports.push(Port::Bus(format!("{stem}_a"), a_bus.clone()));
                ports.push(Port::Bus(format!("{stem}_cx"), x_bus.clone()));
                ports.push(Port::Bus(format!("{stem}_cy"), y_bus.clone()));
            }
        }
    }

    let mut decl: Vec<String> = vec!["input clk".to_string(), "input rst".to_string()];
    for (name, _, _) in &design.inputs {
        decl.push(format!("input {}", sanitize(name)));
    }
    for port in &ports {
        match port {
            Port::Bit(name, _) => decl.push(format!("output {name}")),
            Port::Bus(name, bus) => {
                decl.push(format!("output [{}:0] {name}", bus.len().saturating_sub(1)));
            }
        }
    }
    let _ = writeln!(v, "module {} (", sanitize(top_name));
    let _ = writeln!(v, "  {}", decl.join(",\n  "));
    let _ = writeln!(v, ");");

    // Internal wires: every design net that is not a primary input.
    let input_nets: Vec<usize> = design.inputs.iter().map(|(_, n, _)| n.index()).collect();
    for i in 0..design.net_count() {
        if !input_nets.contains(&i) {
            let _ = writeln!(v, "  wire n{i};");
        }
    }
    for (name, n, _) in &design.inputs {
        let _ = writeln!(v, "  wire {} = {};", net(*n), sanitize(name));
    }

    // Instances, in elaboration order.
    for (idx, cell) in design.cells().iter().enumerate() {
        let inst = format!("u{idx}");
        let line = emit_instance(cell, &inst);
        let _ = writeln!(v, "  {line}");
    }

    // Output assigns.
    for port in &ports {
        match port {
            Port::Bit(name, n) => {
                let _ = writeln!(v, "  assign {name} = {};", net(*n));
            }
            Port::Bus(name, bus) => {
                let _ = writeln!(v, "  assign {name} = {};", bus_concat(bus));
            }
        }
    }
    let _ = writeln!(v, "endmodule");
}

/// The leaf module and `DEPTH` parameter of a manipulator FSM cell.
fn fsm_module(kind: ManipulatorKind) -> (&'static str, u64) {
    match kind {
        ManipulatorKind::Synchronizer { depth } => ("sc_synchronizer", u64::from(depth)),
        ManipulatorKind::Desynchronizer { depth } => ("sc_desynchronizer", u64::from(depth)),
        ManipulatorKind::Decorrelator { depth } => ("sc_decorrelator", depth as u64),
    }
}

fn sample_param_text(spec: &SourceSpec, skip: u64) -> String {
    let (family, width, init, taps) = sample_params(spec, skip);
    format!(".FAMILY({family}), .WIDTH({width}), .INIT(64'd{init}), .TAPS(64'd{taps})")
}

fn emit_instance(cell: &crate::design::Cell, inst: &str) -> String {
    let i = &cell.inputs;
    let o = &cell.outputs;
    match &cell.kind {
        CellKind::And2 | CellKind::Or2 | CellKind::Xor2 | CellKind::Xnor2 => {
            let module = match cell.kind {
                CellKind::And2 => "sc_and2",
                CellKind::Or2 => "sc_or2",
                CellKind::Xor2 => "sc_xor2",
                _ => "sc_xnor2",
            };
            format!(
                "{module} {inst} (.a({}), .b({}), .y({}));",
                net(i[0]),
                net(i[1]),
                net(o[0])
            )
        }
        CellKind::Inv => format!("sc_inv {inst} (.a({}), .y({}));", net(i[0]), net(o[0])),
        CellKind::Mux2 => format!(
            "sc_mux2 {inst} (.d0({}), .d1({}), .sel({}), .y({}));",
            net(i[0]),
            net(i[1]),
            net(i[2]),
            net(o[0])
        ),
        CellKind::Counter { bits } => format!(
            "sc_counter #(.WIDTH({bits})) {inst} (.clk(clk), .rst(rst), .en({}), .q({}));",
            net(i[0]),
            bus_concat(o)
        ),
        CellKind::Source {
            spec,
            skip,
            threshold,
        } => format!(
            "sc_source #({}, .THRESH(16'd{})) {inst} (.clk(clk), .rst(rst), .y({}));",
            sample_param_text(spec, *skip),
            q16(*threshold),
            net(o[0])
        ),
        CellKind::SelectOneHot {
            spec,
            skip,
            weights,
        } => {
            // Packed cumulative thresholds, entry k at bits [16k+15 : 16k].
            let mut cumulative = 0.0f64;
            let mut packed: Vec<String> = Vec::with_capacity(weights.len());
            for w in weights.iter() {
                cumulative += w;
                packed.push(format!("16'd{}", q16(cumulative)));
            }
            packed.reverse(); // Verilog concatenation is MSB first.
            format!(
                "sc_wsel #({}, .K({}), .CDF({{{}}})) {inst} (.clk(clk), .rst(rst), .sel({}));",
                sample_param_text(spec, *skip),
                weights.len(),
                packed.join(", "),
                bus_concat(o)
            )
        }
        CellKind::Fsm { kind } => {
            let (module, depth) = fsm_module(*kind);
            format!(
                "{module} #(.DEPTH({depth})) {inst} (.clk(clk), .rst(rst), .x({}), .y({}), .ox({}), .oy({}));",
                net(i[0]),
                net(i[1]),
                net(o[0]),
                net(o[1])
            )
        }
    }
}
