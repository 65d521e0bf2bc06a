//! Table 1: evaluation scenarios and clean accuracies.
//!
//! Builds (or loads) all three scenario models and prints the measured
//! clean accuracy next to the paper's reference value.

use advhunter::scenario::ScenarioId;
use advhunter_bench::{prepare_scenario, section};

fn main() {
    section("Table 1: Evaluation Scenarios along with Clean Accuracies");
    println!(
        "{:<10} {:<18} {:<20} {:>14} {:>14}",
        "Scenario", "Dataset", "CNN Architecture", "Clean Acc", "Paper"
    );
    let paper = [92.34, 88.59, 96.67];
    for (id, paper_acc) in ScenarioId::TABLE1.iter().zip(paper) {
        let art = prepare_scenario(*id);
        println!(
            "{:<10} {:<18} {:<20} {:>13.2}% {:>13.2}%",
            id.label(),
            id.dataset_name(),
            id.model_name(),
            art.clean_accuracy() * 100.0,
            paper_acc,
        );
    }
    println!(
        "\nNote: datasets are procedural stand-ins (see DESIGN.md); the paper's\n\
         ordering (GTSRB easiest, CIFAR-10 hardest) is the reproduction target."
    );
}
