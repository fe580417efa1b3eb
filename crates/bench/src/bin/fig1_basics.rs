//! Reproduces Fig. 1 of the paper: the worked examples of SC multiplication
//! (a single AND gate) and SC scaled addition (a multiplexer), plus the §I
//! introduction example, on the exact bitstreams printed in the paper.

use sc_arith::add::mux_add;
use sc_arith::multiply::and_multiply;
use sc_bench::{print_comparisons, print_table, Comparison};
use sc_bitstream::{scc, Bitstream};

/// The worked examples: each one's input streams and output stream.
struct WorkedExamples {
    /// §I: X = 01000100 encodes 0.25.
    intro: Bitstream,
    /// Fig. 1a: the AND gate's uncorrelated inputs and their product.
    x: Bitstream,
    y: Bitstream,
    product: Bitstream,
    /// Fig. 1b: the multiplexer's inputs and the scaled sum.
    ax: Bitstream,
    ay: Bitstream,
    sum: Bitstream,
}

/// Runs the worked examples on the paper's bitstreams.
fn worked_examples() -> Result<WorkedExamples, sc_bitstream::Error> {
    let intro = Bitstream::parse("01000100")?;
    let x = Bitstream::parse("01010101")?;
    let y = Bitstream::parse("00111111")?;
    let product = and_multiply(&x, &y)?;
    let ax = Bitstream::parse("01110111")?;
    let ay = Bitstream::parse("11000000")?;
    let select = Bitstream::parse("10100110")?;
    let sum = mux_add(&ax, &ay, &select)?;
    Ok(WorkedExamples {
        intro,
        x,
        y,
        product,
        ax,
        ay,
        sum,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Fig. 1 — basic SC operations on the paper's example bitstreams");
    let WorkedExamples {
        intro,
        x,
        y,
        product,
        ax,
        ay,
        sum,
    } = worked_examples()?;

    print_table(
        "Worked examples",
        &["operation", "inputs", "output stream", "output value"],
        &[
            vec![
                "encode (Sec. I)".into(),
                intro.to_bit_string(),
                intro.to_bit_string(),
                format!("{}", intro.value()),
            ],
            vec![
                "multiply (Fig. 1a)".into(),
                format!("{} & {}", x.to_bit_string(), y.to_bit_string()),
                product.to_bit_string(),
                format!("{}", product.value()),
            ],
            vec![
                "scaled add (Fig. 1b)".into(),
                format!("{} + {}", ax.to_bit_string(), ay.to_bit_string()),
                sum.to_bit_string(),
                format!("{}", sum.value()),
            ],
        ],
    );

    let rows = vec![
        Comparison::new("encoded value of 01000100", 0.25, intro.value()),
        Comparison::new("multiply output value", 0.375, product.value()),
        Comparison::new("scaled add output value", 0.5, sum.value()),
        Comparison::new("multiply inputs SCC (uncorrelated)", 0.0, scc(&x, &y)),
    ];
    print_comparisons("Paper vs measured", &rows);

    let worst = rows
        .iter()
        .map(Comparison::relative_error)
        .fold(0.0f64, f64::max);
    println!("\nLargest relative deviation: {worst:.4}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked examples are exact on 8-bit streams, so every stream and
    /// value is pinned, not banded: 01000100 is 0.25; 01010101 AND 00111111
    /// is 00010101, 0.5 · 0.75 = 0.375, because the two inputs are
    /// uncorrelated (SCC exactly 0); and the multiplexer, picking 01110111
    /// where the select is 1 and 11000000 where it is 0, gives 01100110,
    /// (0.75 + 0.25) / 2 = 0.5.
    #[test]
    fn worked_examples_are_exact() {
        let examples = worked_examples().unwrap();
        assert_eq!(examples.intro.to_bit_string(), "01000100");
        assert_eq!(examples.intro.value(), 0.25);
        assert_eq!(scc(&examples.x, &examples.y), 0.0);
        assert_eq!(examples.product.to_bit_string(), "00010101");
        assert_eq!(examples.product.value(), 0.375);
        assert_eq!(
            examples.product.value(),
            examples.x.value() * examples.y.value()
        );
        assert_eq!(examples.sum.to_bit_string(), "01100110");
        assert_eq!(examples.sum.value(), 0.5);
        assert_eq!(
            examples.sum.value(),
            (examples.ax.value() + examples.ay.value()) / 2.0
        );
    }
}
