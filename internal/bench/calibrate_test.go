package bench

import (
	"os"
	"testing"
)

// TestCalibrationReport prints the full Table 1 when -v is given; used
// while calibrating the cost model against the paper's native column.
// Enable with REPRO_CALIBRATE=1.
func TestCalibrationReport(t *testing.T) {
	if os.Getenv("REPRO_CALIBRATE") == "" {
		t.Skip("set REPRO_CALIBRATE=1 to print the calibration report")
	}
	tb, err := LmbenchTable(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	WriteTable(os.Stdout, tb)
}

// TestCalibrationFigure prints Figure 3 data during calibration.
func TestCalibrationFigure(t *testing.T) {
	if os.Getenv("REPRO_CALIBRATE") == "" {
		t.Skip("set REPRO_CALIBRATE=1 to print the calibration report")
	}
	fig, err := AppFigure(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	WriteFigure(os.Stdout, fig)
}

// TestCalibrationSMP prints Table 2 during calibration.
func TestCalibrationSMP(t *testing.T) {
	if os.Getenv("REPRO_CALIBRATE") == "" {
		t.Skip("set REPRO_CALIBRATE=1 to print the calibration report")
	}
	tb, err := LmbenchTable(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	WriteTable(os.Stdout, tb)
}

// TestCalibrationSwitch prints mode-switch timings during calibration.
func TestCalibrationSwitch(t *testing.T) {
	if os.Getenv("REPRO_CALIBRATE") == "" {
		t.Skip("set REPRO_CALIBRATE=1 to print the calibration report")
	}
	r, err := ModeSwitchBench(10, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	WriteSwitch(os.Stdout, r)
}
