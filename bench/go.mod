module ssbyzclock/bench

go 1.22

require ssbyzclock v0.0.0

replace ssbyzclock => ../
