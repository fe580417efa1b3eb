// Generated by sc_rtl from a compiled sc_graph plan.
// cells: 7, nets: 16, stream length: 256 cycles.
// Leaf modules are emitted once per cell kind; instances are
// parameterised. Do not edit by hand.

module sc_xor2 (input a, input b, output y);
  assign y = a ^ b;
endmodule

module sc_mux2 (input d0, input d1, input sel, output y);
  assign y = sel ? d1 : d0;
endmodule

// S/D converter counter (Fig. 2f) with a combinational increment
// read path: q carries the count including the current cycle.
module sc_counter #(parameter WIDTH = 8)
                   (input clk, input rst, input en, output [WIDTH-1:0] q);
  reg [WIDTH-1:0] state;
  always @(posedge clk or posedge rst)
    if (rst) state <= {WIDTH{1'b0}};
    else state <= state + en;
  assign q = state + en;
endmodule

// Per-cycle sample generator, Q16 output.
// FAMILY 0: maximal-length Fibonacci LFSR (faithful).
// FAMILY 1: bit-reversed counter — exact for base-2 Van der Corput,
//           a behavioural stand-in for Halton / Sobol.
// The Q16 scaling runs in 64-bit arithmetic: a 32-bit `(1 << WIDTH) - 1`
// denominator overflows outright for WIDTH >= 31 and leaves no numerator
// headroom even at 16, so both sides are forced to 64 bits (exact for
// WIDTH <= 48, where (2^WIDTH - 1) << 16 still fits).
module sc_sample #(parameter FAMILY = 0,
                   parameter WIDTH = 16,
                   parameter [63:0] INIT = 64'd1,
                   parameter [63:0] TAPS = 64'hB400)
                  (input clk, input rst, output [15:0] q16);
  reg [WIDTH-1:0] state;
  wire feedback = ^(state & TAPS[WIDTH-1:0]);
  reg [WIDTH-1:0] rev;
  integer i;
  wire [63:0] state64 = {{(64-WIDTH){1'b0}}, state};
  wire [63:0] scaled = ((state64 - 64'd1) << 16) / ((64'd1 << WIDTH) - 64'd1);
  always @(*) begin
    rev = {WIDTH{1'b0}};
    for (i = 0; i < WIDTH; i = i + 1)
      rev[i] = state[WIDTH-1-i];
  end
  always @(posedge clk or posedge rst)
    if (rst) state <= INIT[WIDTH-1:0];
    else if (FAMILY == 0) state <= {state[WIDTH-2:0], feedback};
    else state <= state + 1'b1;
  assign q16 = (FAMILY == 0)
      ? scaled[15:0]
      : (WIDTH >= 16 ? rev[WIDTH-1 -: 16] : rev << (16 - WIDTH));
endmodule

// D/S converter (Fig. 2g): value register compared against a fresh
// sample every cycle.
module sc_source #(parameter FAMILY = 0,
                   parameter WIDTH = 16,
                   parameter [63:0] INIT = 64'd1,
                   parameter [63:0] TAPS = 64'hB400,
                   parameter [15:0] THRESH = 16'd32768)
                  (input clk, input rst, output y);
  wire [15:0] q16;
  sc_sample #(.FAMILY(FAMILY), .WIDTH(WIDTH), .INIT(INIT), .TAPS(TAPS))
    gen (.clk(clk), .rst(rst), .q16(q16));
  assign y = THRESH > q16;
endmodule

// Weighted one-hot selection network: one fresh sample against the
// packed cumulative thresholds; leftover mass falls to the last line.
// The mux chain reads lines 1..K-1 (line 0 is its default), so only
// those leave the module; a 1-way tree reads its one line 0.
module sc_wsel #(parameter FAMILY = 0,
                 parameter WIDTH = 16,
                 parameter [63:0] INIT = 64'd1,
                 parameter [63:0] TAPS = 64'hB400,
                 parameter K = 2,
                 parameter [16*K-1:0] CDF = {16*K{1'b0}})
                (input clk, input rst, output [(K > 1 ? K - 2 : 0):0] sel);
  wire [15:0] q16;
  sc_sample #(.FAMILY(FAMILY), .WIDTH(WIDTH), .INIT(INIT), .TAPS(TAPS))
    gen (.clk(clk), .rst(rst), .q16(q16));
  reg [K-1:0] onehot;
  reg found;
  integer i;
  always @(*) begin
    onehot = {K{1'b0}};
    found = 1'b0;
    for (i = 0; i < K; i = i + 1)
      if (!found && q16 < CDF[16*i +: 16]) begin
        onehot[i] = 1'b1;
        found = 1'b1;
      end
    if (!found) onehot[K-1] = 1'b1;
  end
  assign sel = onehot >> (K > 1);
endmodule

// Synchronizer FSM (Fig. 3a), save depth D: a signed saved-bit credit
// register pairs lone 1s across the streams, driving SCC toward +1.
module sc_synchronizer #(parameter DEPTH = 1)
                        (input clk, input rst, input x, input y,
                         output reg ox, output reg oy);
  reg signed [12:0] credit;
  always @(*) begin
    ox = x; oy = y;
    if (x != y) begin
      if (x && credit < 0)            begin ox = 1'b1; oy = 1'b1; end
      else if (x && credit < DEPTH)   begin ox = 1'b0; oy = 1'b0; end
      else if (!x && credit > 0)      begin ox = 1'b1; oy = 1'b1; end
      else if (!x && credit > -DEPTH) begin ox = 1'b0; oy = 1'b0; end
    end
  end
  always @(posedge clk or posedge rst)
    if (rst) credit <= 13'sd0;
    else if (x != y) begin
      if (x && credit < 0)            credit <= credit + 13'sd1;
      else if (x && credit < DEPTH)   credit <= credit + 13'sd1;
      else if (!x && credit > 0)      credit <= credit - 13'sd1;
      else if (!x && credit > -DEPTH) credit <= credit - 13'sd1;
    end
endmodule

module repaired_graph (
  input clk,
  input rst,
  output edge_bit,
  output [8:0] edge_count
);
  wire n0;
  wire n1;
  wire n2;
  wire n3;
  wire n4;
  wire n5;
  wire n6;
  wire n7;
  wire n8;
  wire n9;
  wire n10;
  wire n11;
  wire n12;
  wire n13;
  wire n14;
  wire n15;
  sc_source #(.FAMILY(1), .WIDTH(16), .INIT(64'd0), .TAPS(64'd0), .THRESH(16'd49152)) u0 (.clk(clk), .rst(rst), .y(n0));
  sc_source #(.FAMILY(0), .WIDTH(16), .INIT(64'd44257), .TAPS(64'd46080), .THRESH(16'd16384)) u1 (.clk(clk), .rst(rst), .y(n1));
  sc_synchronizer #(.DEPTH(1)) u2 (.clk(clk), .rst(rst), .x(n0), .y(n1), .ox(n2), .oy(n3));
  sc_xor2 u3 (.a(n2), .b(n3), .y(n4));
  sc_wsel #(.FAMILY(0), .WIDTH(16), .INIT(64'd29489), .TAPS(64'd46080), .K(2), .CDF({16'd65535, 16'd32768})) u4 (.clk(clk), .rst(rst), .sel({n5}));
  sc_mux2 u5 (.d0(n4), .d1(n0), .sel(n5), .y(n6));
  sc_counter #(.WIDTH(9)) u6 (.clk(clk), .rst(rst), .en(n6), .q({n15, n14, n13, n12, n11, n10, n9, n8, n7}));
  assign edge_bit = n6;
  assign edge_count = {n15, n14, n13, n12, n11, n10, n9, n8, n7};
endmodule
