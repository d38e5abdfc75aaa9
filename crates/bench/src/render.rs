//! Text rendering of the figures for the `evaluate` binary.

use crate::figures::{fig11, fig12, mean, AppRuns};
use greenweb::qos::Scenario;
use greenweb_acmp::CoreType;
use std::fmt::Write;

/// Fig. 9a / Fig. 10a: energy normalized to Perf.
///
/// For the microbenchmarks the paper plots only GreenWeb (Fig. 9a); for
/// full interactions it adds Interactive (Fig. 10a). Both columns are
/// printed here.
pub fn energy_figure(title: &str, suite: &[AppRuns]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}\n");
    let _ = writeln!(
        out,
        "{:<11} {:>9} {:>12} {:>11} {:>11}",
        "app", "Perf", "Interactive", "GreenWeb-I", "GreenWeb-U"
    );
    for app in suite {
        let (inter, gwi, gwu) = app.normalized_energy();
        let _ = writeln!(
            out,
            "{:<11} {:>8.0}% {:>11.1}% {:>10.1}% {:>10.1}%",
            app.name,
            100.0,
            inter * 100.0,
            gwi * 100.0,
            gwu * 100.0
        );
    }
    let mean_inter = mean(suite.iter().map(|a| a.normalized_energy().0));
    let mean_gwi = mean(suite.iter().map(|a| a.normalized_energy().1));
    let mean_gwu = mean(suite.iter().map(|a| a.normalized_energy().2));
    let _ = writeln!(
        out,
        "{:<11} {:>8.0}% {:>11.1}% {:>10.1}% {:>10.1}%",
        "mean",
        100.0,
        mean_inter * 100.0,
        mean_gwi * 100.0,
        mean_gwu * 100.0
    );
    let _ = writeln!(
        out,
        "\nGreenWeb saving vs Interactive: I {:.1}%  U {:.1}%",
        (1.0 - mean_gwi / mean_inter) * 100.0,
        (1.0 - mean_gwu / mean_inter) * 100.0
    );
    out
}

/// Fig. 9b / Fig. 10b / Fig. 10c: extra QoS violations over Perf.
pub fn violation_figure(title: &str, suite: &[AppRuns], scenario: Scenario) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}\n");
    let _ = writeln!(
        out,
        "{:<11} {:>12} {:>11}",
        "app", "Interactive", "GreenWeb"
    );
    let mut greenweb_values = Vec::new();
    for app in suite {
        let (inter, gw) = match scenario {
            Scenario::Imperceptible => app.extra_violations_imperceptible(),
            Scenario::Usable => app.extra_violations_usable(),
        };
        greenweb_values.push(gw);
        let _ = writeln!(out, "{:<11} {:>11.1}% {:>10.1}%", app.name, inter, gw);
    }
    let _ = writeln!(
        out,
        "{:<11} {:>12} {:>10.1}%",
        "mean",
        "",
        mean(greenweb_values)
    );
    out
}

/// Fig. 11a / Fig. 11b: configuration residency distribution.
pub fn residency_figure(title: &str, suite: &[AppRuns], scenario: Scenario) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}\n");
    let _ = writeln!(
        out,
        "{:<11} {:>6}  configuration shares (>2% of window)",
        "app", "A15%"
    );
    for row in fig11(suite, scenario) {
        let mut shares = String::new();
        for (config, fraction) in &row.shares {
            if *fraction >= 0.02 {
                let _ = write!(shares, "{config}:{:.0}% ", fraction * 100.0);
            }
        }
        let _ = writeln!(
            out,
            "{:<11} {:>5.1}%  {shares}",
            row.app,
            row.big_fraction() * 100.0
        );
    }
    out
}

/// Fig. 12: configuration switching per frame, split DVFS vs. migration.
pub fn switching_figure(suite: &[AppRuns]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 12: configuration switches per frame (DVFS + migration)\n"
    );
    let _ = writeln!(
        out,
        "{:<11} {:>9} {:>9} {:>9} {:>9}",
        "app", "I dvfs", "I migr", "U dvfs", "U migr"
    );
    let rows = fig12(suite);
    for row in &rows {
        let _ = writeln!(
            out,
            "{:<11} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            row.app, row.imperceptible.0, row.imperceptible.1, row.usable.0, row.usable.1
        );
    }
    let total_i = mean(rows.iter().map(|r| r.imperceptible.0 + r.imperceptible.1));
    let total_u = mean(rows.iter().map(|r| r.usable.0 + r.usable.1));
    let dvfs_share = mean(rows.iter().map(|r| {
        let total = r.imperceptible.0 + r.imperceptible.1 + r.usable.0 + r.usable.1;
        if total == 0.0 {
            0.0
        } else {
            (r.imperceptible.0 + r.usable.0) / total
        }
    }));
    let _ = writeln!(
        out,
        "\nmean switches/frame: I {total_i:.3}  U {total_u:.3}; DVFS share {:.0}%",
        dvfs_share * 100.0
    );
    out
}

/// A one-page summary of the big-cluster residency contrast (the headline
/// of Fig. 11).
pub fn residency_contrast(suite: &[AppRuns]) -> String {
    let mut out = String::new();
    let i = mean(
        fig11(suite, Scenario::Imperceptible)
            .iter()
            .map(super::figures::ResidencyRow::big_fraction),
    );
    let u = mean(
        fig11(suite, Scenario::Usable)
            .iter()
            .map(super::figures::ResidencyRow::big_fraction),
    );
    let _ = writeln!(
        out,
        "mean big-cluster ({}) residency: imperceptible {:.1}%, usable {:.1}%",
        CoreType::Big,
        i * 100.0,
        u * 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{run_apps, SuiteKind};
    use greenweb_fleet::Jobs;
    use greenweb_workloads::by_name;

    fn tiny_suite() -> Vec<AppRuns> {
        run_apps(
            &[by_name("Todo").unwrap()],
            SuiteKind::Micro,
            Jobs::from_env(),
        )
    }

    #[test]
    fn energy_figure_renders_rows_and_means() {
        let text = energy_figure("Fig. X", &tiny_suite());
        assert!(text.starts_with("Fig. X"));
        assert!(text.contains("Todo"));
        assert!(text.contains("mean"));
        assert!(text.contains("GreenWeb saving vs Interactive"));
    }

    #[test]
    fn violation_figure_renders_both_scenarios() {
        let suite = tiny_suite();
        for scenario in Scenario::ALL {
            let text = violation_figure("Fig. V", &suite, scenario);
            assert!(text.contains("Todo"));
            assert!(text.contains('%'));
        }
    }

    #[test]
    fn residency_figure_lists_shares() {
        let suite = tiny_suite();
        let text = residency_figure("Fig. R", &suite, Scenario::Usable);
        assert!(text.contains("Todo"));
        assert!(text.contains("A15%"));
        let contrast = residency_contrast(&suite);
        assert!(contrast.contains("big-cluster"));
    }

    #[test]
    fn switching_figure_reports_dvfs_share() {
        let text = switching_figure(&tiny_suite());
        assert!(text.contains("Todo"));
        assert!(text.contains("DVFS share"));
    }
}
