package universal_test

import (
	"fmt"

	"repro/internal/dialect"
	"repro/internal/goal"
	"repro/internal/goals/printing"
	"repro/internal/server"
	"repro/internal/system"
	"repro/internal/universal"
)

// ExampleCompactUser demonstrates the one-minute flow: a universal user
// achieves the printing goal with a printer whose dialect it is never told.
func ExampleCompactUser() {
	fam, err := dialect.NewWordFamily(printing.Vocabulary(), 16)
	if err != nil {
		fmt.Println("family:", err)
		return
	}

	// The adversary picks dialect 11; the user only knows the class.
	srv := server.Dialected(&printing.Server{}, fam.Dialect(11))
	user, err := universal.NewCompactUser(printing.Enum(fam), printing.Sense(0))
	if err != nil {
		fmt.Println("user:", err)
		return
	}

	g := &printing.Goal{}
	cfg := system.Config{MaxRounds: 800, Seed: 1}
	res, err := system.Run(user, srv, g.NewWorld(goal.Env{}), cfg)
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	fmt.Println("achieved:", goal.CompactAchieved(g, res.History, 10))
	fmt.Println("final candidate dialect:", user.Index()%fam.Size())
	// Output:
	// achieved: true
	// final candidate dialect: 11
}
