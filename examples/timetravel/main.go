// Command timetravel demonstrates the paper's full temporal range: "a
// range query may ask about the past, the present, or the future". A
// fleet moves across the city while every report is archived in the
// repository; the program then answers
//
//   - a PAST range query from the archive (who crossed the plaza between
//     t=100 and t=200?), via the object-indexed location history,
//   - a PRESENT continuous range query from the engine, and
//   - a FUTURE predictive range query from the engine's trajectory join.
//
// Run with:
//
//	go run ./examples/timetravel
package main

import (
	"fmt"
	"io"
	"os"

	"cqp"
	"cqp/internal/repository"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "timetravel:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	dir, err := os.MkdirTemp("", "cqp-timetravel-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	repo, err := repository.Open(dir)
	if err != nil {
		return err
	}
	defer repo.Close()

	net := cqp.GenerateRoadNetwork(cqp.RoadNetworkConfig{Seed: 11})
	world := cqp.MustNewWorld(cqp.WorldConfig{Net: net, NumObjects: 200, Seed: 11})
	engine := cqp.MustNewEngine(cqp.Options{
		Bounds: cqp.R(0, 0, 1, 1), GridN: 32, PredictiveHorizon: 4000,
	})
	plaza := cqp.RectAt(cqp.Pt(0.5, 0.5), 0.08)
	fmt.Fprintf(w, "the plaza: %v; fleet of %d vehicles\n\n", plaza, world.NumObjects())

	// Drive the fleet for 600 seconds, reporting (and archiving) every 60.
	for tick := 0; tick <= 10; tick++ {
		now := world.Now()
		for i := 0; i < world.NumObjects(); i++ {
			loc, vel := world.Object(i)
			engine.ReportObject(cqp.ObjectUpdate{
				ID: cqp.ObjectID(i + 1), Kind: cqp.Predictive, Loc: loc, Vel: vel, T: now,
			})
			if err := repo.AppendLocation(repository.LocationRecord{
				ID: cqp.ObjectID(i + 1), Loc: loc, T: now,
			}); err != nil {
				return err
			}
		}
		engine.Step(now)
		world.Advance(60)
	}
	now := world.Now()

	// PAST: who was in the plaza between t=100 and t=300?
	past, err := repo.HistoricalRange(plaza, 100, 300)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "PAST    vehicles reported inside the plaza during [100,300]: %v\n", past)
	if len(past) > 0 {
		traj, err := repo.Trajectory(past[0], 0, now)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "        vehicle %d left %d archived positions; first %v at t=%.0f, last %v at t=%.0f\n",
			past[0], len(traj), traj[0].Loc, traj[0].T, traj[len(traj)-1].Loc, traj[len(traj)-1].T)
	}

	// PRESENT: a continuous range query over the plaza right now.
	engine.ReportQuery(cqp.QueryUpdate{ID: 1, Kind: cqp.Range, Region: plaza, T: now})
	engine.Step(now)
	present, _ := engine.Answer(1)
	fmt.Fprintf(w, "PRESENT vehicles inside the plaza now (t=%.0f): %v\n", now, present)

	// FUTURE: who is predicted to cross the plaza in the next half hour?
	engine.ReportQuery(cqp.QueryUpdate{
		ID: 2, Kind: cqp.PredictiveRange, Region: plaza,
		T1: now, T2: now + 1800, T: now,
	})
	engine.Step(now)
	future, _ := engine.Answer(2)
	fmt.Fprintf(w, "FUTURE  vehicles predicted to cross the plaza within 30 min: %v\n", future)

	fmt.Fprintf(w, "\narchive: %d bytes of location history, %d reports indexed by object ID\n",
		repo.NumArchivedBytes(), 11*world.NumObjects())
	return nil
}
