module txmldb/bench

go 1.22

require txmldb v0.0.0

replace txmldb => ../
