//! Golden pin of the paper-default SVR's answers.
//!
//! `fig5_golden.rs` recomputes only the baseline rows, so this test is
//! the one that fixes what the SMO solver produces end to end: the exact
//! `f64` bits of every vehicle's predictions, PE and MAE and of the fleet
//! PE on a small fixed fleet. Any change to the solver's arithmetic, its
//! pair-selection order or its tie-breaks moves at least one of these
//! bits.

use vup_bench::small_fleet;
use vup_core::fleet_eval::evaluate_fleet;
use vup_core::PipelineConfig;
use vup_fleetsim::VehicleId;

/// Per vehicle: id, FNV-1a digest of the predicted values' bits, PE bits,
/// MAE bits.
#[rustfmt::skip]
const GOLDEN: [(u32, u64, u64, u64); 8] = [
    (0, 0x9bb41d4cb1f7b593, 0x402481c20bff8efa, 0x3fda80bf87aa0888),
    (1, 0x467b709491ea7cb9, 0x404316557f287fdd, 0x3ffa8e0865045455),
    (2, 0x68e87eb411b0f07e, 0x403ea3972395a544, 0x3fe45dcb316dcea5),
    (3, 0xa1408163a26ea0e6, 0x40373c20e11b9d07, 0x3fd92bcb8b6ecf27),
    (4, 0x4fb9785e1c543b42, 0x40388c14c50dafc4, 0x3fe649d4c5e509f2),
    (5, 0x835be673feabf3fe, 0x402d2604055da874, 0x3fdb8489f9f53076),
    (6, 0xcd885e3dd7eee69a, 0x403c1ac4a1ba74c6, 0x3ffe063acbaa7a0d),
    (7, 0xaa7e29e87c6a5d7d, 0x4031cbeb2d819dac, 0x4000a3cc6dc62cc0),
];
/// Fleet PE (23.415547609172783 %) bits.
const GOLDEN_FLEET_PE: u64 = 0x40376a6153ff53fe;

fn digest(values: impl Iterator<Item = f64>) -> u64 {
    values.fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn paper_default_svr_answers_are_bit_identical_to_the_golden_pin() {
    let fleet = small_fleet(8);
    let ids: Vec<VehicleId> = fleet.vehicles().iter().map(|v| v.id).collect();
    // The paper-default model: RBF SVR, C = 10, ε = 0.1, γ = 1/p.
    let config = PipelineConfig {
        eval_tail: Some(14),
        ..PipelineConfig::default()
    };
    let eval = evaluate_fleet(&fleet, &ids, &config, 1);

    assert_eq!(eval.members.len(), GOLDEN.len());
    for (member, &(id, preds, pe, mae)) in eval.members.iter().zip(&GOLDEN) {
        assert_eq!(member.vehicle_id, id);
        let e = member
            .outcome
            .as_ref()
            .unwrap_or_else(|err| panic!("vehicle {id}: {err}"));
        assert_eq!(e.retrain_count, 2, "vehicle {id} retrains");
        assert_eq!(
            digest(e.points.iter().map(|p| p.predicted)),
            preds,
            "vehicle {id} predictions"
        );
        assert_eq!(
            e.percentage_error.to_bits(),
            pe,
            "vehicle {id} PE {}",
            e.percentage_error
        );
        assert_eq!(e.mae.to_bits(), mae, "vehicle {id} MAE {}", e.mae);
    }
    assert_eq!(
        eval.mean_percentage_error.to_bits(),
        GOLDEN_FLEET_PE,
        "fleet PE {}",
        eval.mean_percentage_error
    );
}
