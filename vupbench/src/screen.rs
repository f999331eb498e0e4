//! The set-up screen `paper_eval` and `serve_hot` pick vehicles with:
//! the last weeks of raw telemetry are cleaned through the data
//! preparation pipeline, and a vehicle qualifies when it was in use.

use vup_core::{Scenario, VehicleView};
use vup_dataprep::pipeline::prepare_vehicle_days;
use vup_fleetsim::calendar::SIM_END;
use vup_fleetsim::dropout::DropoutConfig;
use vup_fleetsim::generator::generate_history;
use vup_fleetsim::{Fleet, VehicleId};

use crate::trace::Trace;

/// Days of raw telemetry cleaned per vehicle.
const SCREEN_DAYS: usize = 28;
/// Working days a vehicle must show in the screened weeks.
const MIN_ACTIVE_DAYS: usize = 8;

/// Whether `id` qualifies: the cleaned telemetry of the simulation's
/// last `SCREEN_DAYS` days shows it working on at least
/// `MIN_ACTIVE_DAYS` of them (span `dataprep.prepare`), and its
/// next-working-day series holds at least `min_slots` slots.
pub fn qualifies(
    t: &mut Trace,
    fleet: &Fleet,
    id: VehicleId,
    min_slots: usize,
) -> Result<bool, String> {
    let start = SIM_END.plus_days(1 - SCREEN_DAYS as i64);
    let prepared = t
        .span("dataprep.prepare", |_| {
            prepare_vehicle_days(fleet, id, start, SCREEN_DAYS, &DropoutConfig::default())
        })
        .map_err(|e| format!("prepare vehicle {}: {e}", id.0))?;
    let working = prepared
        .records
        .iter()
        .filter(|r| Scenario::NextWorkingDay.includes(r.hours))
        .count();
    if working < MIN_ACTIVE_DAYS {
        return Ok(false);
    }
    let history = t.span("fleetsim.generate", |_| generate_history(fleet, id));
    let view = VehicleView::from_history(fleet, &history, Scenario::NextWorkingDay);
    Ok(view.len() >= min_slots)
}
